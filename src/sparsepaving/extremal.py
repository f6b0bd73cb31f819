"""Extremal density of line structures and empirical abundance rates.

ex(n, L) asks how many non-bases a rank-r sparse paving matroid on [n] can
carry before a copy of L is forced; densities are kept as exact rationals.
The abundance machinery measures, over a census population (all of S_n or
seeded exact draws), how often a sparse paving matroid admits a contraction
whose dependent sets hold m element-disjoint copies of a target line
structure; every independent set of the right size is tried as the
contraction.

Both searches here run under errors.WORK_BUDGET: ex_density's copy-table
placements (the placements of the pattern into [n], a bound on the copies
it builds) plus nodes, and count_disjoint_copies' embeddings plus packing
tests.  They return the exact answer, or raise BudgetExceededError once
their work would pass the budget.  Neither returns a partial answer.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import NamedTuple

from . import errors
from .bits import elements_of
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import BadCardinalityError, BudgetExceededError
from .johnson import Population, johnson_graph, max_stable_bound
from .minors import (
    _normalize_host,
    _placements,
    _regions,
    contains_line_structure,
    contract,
    copies,
    has_minor,
    independent_subsets,
    iter_embeddings,
)
from .structures import _disjoint_family


class DensityResult(NamedTuple):
    """ex(n, L) with a witness family; exact is always True."""

    n: int
    r: int
    best_count: int
    density: Fraction
    witness: SparsePavingMatroid
    exact: bool
    nodes: int = 0


def ex_density(n: int, r: int, pattern: LineStructure) -> DensityResult:
    """Largest non-basis count (and density) of a rank-r matroid on [n] avoiding L.

    Branch and bound over stable families in vertex order; a branch dies
    when it completes a copy of the pattern, when too few candidates remain
    to beat the incumbent, or when the incumbent hits the stable-set size
    bound C(n,r)/(n+1-r).  The candidates are the later vertices neither
    adjacent to a chosen one nor forbidden by the copy table; both sets only
    grow down a branch, so no other vertex can join it.  The bound cuts
    only branches that cannot strictly beat the incumbent, so the incumbents
    and witness are those of a search by vertex count alone.  nodes is the
    number of vertices searched.

    The family on a branch is pattern-free, so a new vertex v can only
    complete a copy through v.  One copy table (_copy_table) per call
    gives, for the family so far, the mask of the vertices that would, so
    each node is one bit test.  The table's placements (minors._placements,
    a bound on its copies) plus the nodes count against errors.WORK_BUDGET:
    an oversized table is refused before it is built, and a longer search
    raises BudgetExceededError.  A full search checks the witness at the end.
    """
    if not pattern.masks:
        raise ValueError("empty pattern embeds in everything; no matroid avoids it")
    if pattern.r != r:
        raise BadCardinalityError(f"pattern rank {pattern.r} does not match r={r}")
    if pattern.support.bit_length() > n:
        raise ValueError(f"pattern support exceeds ground set of size {n}")
    budget = errors.WORK_BUDGET
    regions = _regions(pattern)
    placements = _placements(n, regions)
    if placements > budget:
        raise BudgetExceededError(
            f"ex_density({n}, {r}) needs {placements} copy-table placements,"
            f" more than budget {budget}"
        )
    g = johnson_graph(n, r)
    table = _copy_table(g, pattern.masks, regions)
    nv = g.vertex_count
    full = (1 << nv) - 1
    cap = int(max_stable_bound(n, r))
    rest = len(pattern.masks) - 2  # chosen vertices in a key through the new one
    best: list[int] = []
    nodes = 0
    node_budget = budget - placements

    def dfs(start: int, chosen: list[int], blocked: int, forbidden: int) -> bool:
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= cap:
            return True
        avail = full & ~blocked & ~forbidden
        for i in range(start, nv):
            if len(chosen) + (avail >> i).bit_count() <= len(best):
                break
            if (blocked >> i) & 1:
                continue
            if nodes >= node_budget:
                raise BudgetExceededError(
                    f"ex_density({n}, {r}) after {placements} copy-table placements"
                    f" needs more than {node_budget} nodes; best so far {len(best)}"
                )
            nodes += 1
            if (forbidden >> i) & 1:
                continue
            bit = 1 << i
            grown = forbidden
            for sub in combinations(chosen, rest):
                grown |= table.get(sum(sub) | bit, 0)
            chosen.append(bit)
            done = dfs(i + 1, chosen, blocked | g.adj[i], grown)
            chosen.pop()
            if done:
                return True
        return False

    dfs(0, [], 0, table.get(0, 0))
    witness = make_sparse_paving(n, r, g.masks_of(sum(best)))
    assert contains_line_structure(witness.nonbases, pattern) is None
    density = Fraction(len(best) * n, comb(n, r))
    return DensityResult(n, r, len(best), density, witness, exact=True, nodes=nodes)


def _copy_table(g, lines, regions) -> dict[int, int]:
    """For each copy of the lines in J(n, r) and each line b of it, key -> b.

    minors.copies builds each copy once, as bits over the ascending
    r-subset index, which is g's vertex index.  The key is the copy less
    b, and its value gains b, so a stable family completes a copy by
    adding v exactly when v is in the value of one of its
    (|lines| - 1)-subsets.
    """
    table: dict[int, int] = {}
    for bits in copies(g.n, lines, regions):
        copy = sum(bits)
        for b in bits:
            table[copy ^ b] = table.get(copy ^ b, 0) | b
    return table


def disjoint_copies(pattern: LineStructure, k: int) -> LineStructure:
    """L^k: k element-disjoint copies of the pattern on a fresh support."""
    if k < 1:
        raise ValueError("need at least one copy")
    elems = elements_of(pattern.support)
    relabel = {e: i for i, e in enumerate(elems)}  # element -> bit in copy 0
    width = len(elems)
    masks = []
    for copy in range(k):
        off = copy * width
        for line in pattern.masks:
            out = 0
            for e in elements_of(line):
                out |= 1 << (relabel[e] + off)
            masks.append(out)
    return LineStructure.build(pattern.r, masks, validate=False)


def count_disjoint_copies(host, pattern: LineStructure) -> int:
    """Maximum number of pairwise support-disjoint copies of the pattern in host.

    Collects the supports of all embeddings, then packs them with the moat
    search's structures._disjoint_family.  Each embedding and each packing
    disjointness test is one unit of work; past errors.WORK_BUDGET units it
    raises BudgetExceededError.
    """
    if not pattern.masks:
        raise ValueError("empty pattern has unboundedly many copies")
    host_masks = _normalize_host(host, pattern.r)
    if not host_masks:
        return 0

    budget = errors.WORK_BUDGET
    supports: set[int] = set()
    work = 0
    for emb in iter_embeddings(host_masks, pattern):
        work += 1
        if work > budget:
            raise BudgetExceededError(f"more than {budget} embeddings of the pattern")
        sup = 0
        for _, img in emb.line_images:
            sup |= img
        supports.add(sup)
    return len(_disjoint_family(sorted(supports), len(supports), work))


def abundance_trend(
    h: SparsePavingMatroid,
    n_values,
    m: int,
    samples: int,
    seed: int,
) -> list[dict]:
    """Per-n fractions of matroids with an abundant contraction for h.

    The population is johnson.Population with tag "abundance": all of S_n
    when samples == 0, one member per S_n-orbit weighted by the orbit's
    size, otherwise that many seeded exact draws; either is refused with
    BudgetExceededError past the vertex budget (n >= 9), the only bound.
    For each member M the contraction candidates are all its independent
    sets of size r(M) - r(h), so the hits are invariant under relabelling
    [n] and one member stands for its orbit.
    A member counts as a disjoint-copies hit when some candidate quotient
    packs at least m element-disjoint copies of L(h), and as a clean-copy
    hit when some candidate yields a clean copy of h itself, that is, when
    has_minor(M, h) finds h (the minors docstring shows the two agree).
    An empty L(h) needs zero copies, so its hit rate is 1 by convention.
    Identical seeds give identical tables; the exact column is always true.
    """
    if m < 0:
        raise ValueError("copy requirement must be nonnegative")
    pattern = h.structure
    rows = []
    for n in n_values:
        pop = Population(n, samples, seed, "abundance")
        disjoint_hits = 0
        clean_hits = 0
        for mat, weight in pop:
            d = mat.r - h.r
            if not pattern.masks:
                disjoint_hits += weight  # zero copies always pack
            if d < 0:
                continue
            dis, cln = _contraction_hits(mat, h, d, pattern if pattern.masks else None, m)
            disjoint_hits += weight * dis
            clean_hits += weight * cln
        rows.append(
            {
                "n": n,
                "samples": pop.size,
                "m": m,
                "disjoint_hits": disjoint_hits,
                "clean_hits": clean_hits,
                "disjoint_frac": pop.share(disjoint_hits),
                "clean_frac": pop.share(clean_hits),
                "rank_hist": pop.rank_hist,
                "exact": True,
            }
        )
    return rows


def _contraction_hits(mat, h, d, pattern, m):
    """(disjoint-copies hit, clean-copy hit) of one member, each 0 or 1."""
    cln_hit = int(mat.n >= h.n and has_minor(mat, h) is not None)
    if pattern is not None:
        for a in independent_subsets(mat, d):
            if count_disjoint_copies(contract(mat, a).dependents, pattern) >= m:
                return 1, cln_hit
    return 0, cln_hit
