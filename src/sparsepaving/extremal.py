"""Extremal density of line structures and empirical abundance rates.

ex(n, L) asks how many non-bases a rank-r sparse paving matroid on [n] can
carry before a copy of L is forced; densities are kept as exact rationals.
The abundance machinery measures, over a census population (all of S_n or
seeded exact draws), how often a sparse paving matroid admits a contraction
whose dependent sets hold m element-disjoint copies of a target line
structure; every independent set of the right size is tried as the
contraction.

ex_density scans the S_n-orbits of J(n, r), so the vertex budget that
admits the graph bounds it.  count_disjoint_copies runs under
errors.WORK_BUDGET, counting embeddings plus packing tests.  Each returns
the exact answer or raises BudgetExceededError; neither returns a partial
answer.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import errors
from .bits import elements_of
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import BadCardinalityError, BudgetExceededError
from .johnson import Population, johnson_graph
from .minors import (
    _normalize_host,
    contains_line_structure,
    contract,
    has_minor,
    independent_subsets,
    iter_embeddings,
)
from .structures import _disjoint_family


class DensityResult(NamedTuple):
    """ex(n, L) with a witness family; exact is always True.

    nodes is the number of orbit representatives ex_density tested.
    """

    n: int
    r: int
    best_count: int
    density: Fraction
    witness: SparsePavingMatroid
    exact: bool
    nodes: int = 0


def ex_density(n: int, r: int, pattern: LineStructure) -> DensityResult:
    """Largest non-basis count (and density) of a rank-r matroid on [n] avoiding L.

    A relabelling of [n] maps copies of L to copies of L and keeps a
    family's size, so ex(n, L) is the size of the largest L-free
    representative among the S_n-orbits of J(n, r).  The orbits come in
    order of size, so the scan runs from the end and stops at the first
    L-free representative, which is the witness; the empty family ends it
    at the latest.  nodes is the number of representatives tested.
    johnson_graph refuses J(n, r) past the vertex budget, the only bound.
    """
    if not pattern.masks:
        raise ValueError("empty pattern embeds in everything; no matroid avoids it")
    if pattern.r != r:
        raise BadCardinalityError(f"pattern rank {pattern.r} does not match r={r}")
    if pattern.support.bit_length() > n:
        raise ValueError(f"pattern support exceeds ground set of size {n}")
    for tested, (masks, _, _) in enumerate(reversed(johnson_graph(n, r).orbits()), 1):
        if contains_line_structure(masks, pattern) is None:
            break
    density = Fraction(len(masks) * n, comb(n, r))
    return DensityResult(n, r, len(masks), density, make_sparse_paving(n, r, masks),
                         exact=True, nodes=tested)


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
