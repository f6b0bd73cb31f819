"""Extremal density of line structures and empirical abundance rates.

ex(n, L) asks how many non-bases a rank-r sparse paving matroid on [n] can
carry before a copy of L is forced; densities are kept as exact rationals.
The abundance machinery measures, over a census population (all of S_n or
seeded exact draws), how often a sparse paving matroid admits a contraction
whose dependent sets hold m element-disjoint copies of a target line
structure; every independent set of the right size is tried as the
contraction.

Both searches here, ex_density and count_disjoint_copies, run under
errors.WORK_BUDGET: they return the exact answer, or raise
BudgetExceededError once their work passes the budget.  Neither returns
a partial answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import errors
from .bits import elements_of
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import BadCardinalityError, BudgetExceededError
from .johnson import Population, johnson_graph, max_stable_bound
from .minors import (
    _normalize_host,
    contains_line_structure,
    contract,
    has_minor,
    independent_subsets,
    iter_embeddings,
    iter_embeddings_through,
    through_orders,
)


@dataclass(frozen=True)
class DensityResult:
    """ex(n, L) with a witness family; exact is always True."""

    n: int
    r: int
    best_count: int
    density: Fraction
    witness: SparsePavingMatroid = field(compare=False)
    exact: bool
    nodes: int = field(compare=False, default=0)


def ex_density(n: int, r: int, pattern: LineStructure) -> DensityResult:
    """Largest non-basis count (and density) of a rank-r matroid on [n] avoiding L.

    Branch and bound over stable families in vertex order; a branch dies
    when it completes a copy of the pattern, when too few vertices remain
    to beat the incumbent, or when the incumbent hits the stable-set size
    bound C(n,r)/(n+1-r).  nodes is the number of vertices searched; a
    search that would pass errors.WORK_BUDGET nodes raises
    BudgetExceededError instead.

    The family on the current branch is always pattern-free, so adding a
    vertex v can only complete a copy whose image contains v: each node
    searches just those (iter_embeddings_through), not the whole family.
    The witness is checked once more by a full search at the end.
    """
    if not pattern.masks:
        raise ValueError("empty pattern embeds in everything; no matroid avoids it")
    if pattern.r != r:
        raise BadCardinalityError(f"pattern rank {pattern.r} does not match r={r}")
    if pattern.support.bit_length() > n:
        raise ValueError(f"pattern support exceeds ground set of size {n}")
    g = johnson_graph(n, r)
    verts = g.vertices
    nv = len(verts)
    cap = int(max_stable_bound(n, r))
    best: list[int] = []
    nodes = 0
    budget = errors.WORK_BUDGET
    orders = through_orders(pattern)

    def dfs(start: int, chosen: list[int], blocked: int) -> bool:
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= cap:
            return True
        for i in range(start, nv):
            if len(chosen) + (nv - i) <= len(best):
                break
            if (blocked >> i) & 1:
                continue
            if nodes >= budget:
                raise BudgetExceededError(
                    f"ex_density({n}, {r}) needs more than {budget} nodes;"
                    f" best so far {len(best)}"
                )
            nodes += 1
            v = verts[i]
            if next(iter_embeddings_through(chosen, v, pattern, orders), None) is not None:
                continue
            chosen.append(v)
            done = dfs(i + 1, chosen, blocked | g.adj[i])
            chosen.pop()
            if done:
                return True
        return False

    dfs(0, [], 0)
    witness = make_sparse_paving(n, r, best)
    assert contains_line_structure(witness.nonbases, pattern) is None
    return DensityResult(
        n=n,
        r=r,
        best_count=len(best),
        density=Fraction(len(best) * n, comb(n, r)),
        witness=witness,
        exact=True,
        nodes=nodes,
    )


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

    Collects the supports of all embeddings, then solves the packing by
    branch and bound.  Each embedding and each packing node is one unit of
    work; past errors.WORK_BUDGET units it raises BudgetExceededError.
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

    sups = sorted(supports)
    bound = len(sups)
    best = 0

    def pack(i: int, used: int, cnt: int) -> None:
        nonlocal best, work
        if cnt > best:
            best = cnt
        for j in range(i, bound):
            if cnt + (bound - j) <= best:
                return
            if sups[j] & used:
                continue
            work += 1
            if work > budget:
                raise BudgetExceededError(
                    f"packing {bound} pattern supports needs more than {budget} steps"
                )
            pack(j + 1, used | sups[j], cnt + 1)

    pack(0, 0, 0)
    return best


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
