"""Extremal density of line structures and empirical abundance rates.

ex(n, L) asks how many non-bases a rank-r sparse paving matroid on [n] can
carry before a copy of L is forced; densities are kept as exact rationals.
The abundance machinery measures, over a census population (all of S_n or
seeded draws), how often a sparse paving matroid admits a contraction whose
dependent sets hold m element-disjoint copies of a target line structure.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .bits import elements_of, mask_of
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import BadCardinalityError
from .johnson import Population, derive_seed, johnson_graph, max_stable_bound
from .minors import (
    _normalize_host,
    clean_copy_minor,
    contains_line_structure,
    contract,
    independent_subsets,
    iter_embeddings,
    iter_embeddings_through,
    through_orders,
)

DEFAULT_NODE_BUDGET = 10**6
DEFAULT_COPY_BUDGET = 10**6
DEFAULT_POOL_CAP = 10**4


@dataclass(frozen=True)
class DensityResult:
    n: int
    r: int
    best_count: int
    density: Fraction
    witness: SparsePavingMatroid = field(compare=False)
    exact: bool
    nodes: int = field(compare=False, default=0)


def ex_density(
    n: int, r: int, pattern: LineStructure, budget: int = DEFAULT_NODE_BUDGET
) -> DensityResult:
    """Largest non-basis count (and density) of a rank-r matroid on [n] avoiding L.

    Branch and bound over stable families in vertex order; a branch dies
    when it completes a copy of the pattern, when too few vertices remain
    to beat the incumbent, or when the incumbent hits the stable-set size
    bound C(n,r)/(n+1-r).  Runs exactly when the node budget suffices,
    otherwise returns the best family found flagged inexact; nodes is the
    number of vertices searched, so an aborted search reports its budget.

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
    aborted = False
    orders = through_orders(pattern)

    def dfs(start: int, chosen: list[int], blocked: int) -> bool:
        nonlocal best, nodes, aborted
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
                aborted = True
                return True
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
        exact=not aborted,
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


@dataclass(frozen=True)
class CopyCount:
    count: int
    exact: bool


def count_disjoint_copies(
    host, pattern: LineStructure, budget: int = DEFAULT_COPY_BUDGET
) -> CopyCount:
    """Maximum number of pairwise support-disjoint copies of the pattern in host.

    Collects the supports of all embeddings, then solves the packing by
    branch and bound.  If the embedding stream or the packing search would
    pass the budget, the best packing found so far is returned flagged
    inexact (it is still a valid lower bound).
    """
    if not pattern.masks:
        raise ValueError("empty pattern has unboundedly many copies")
    host_masks = _normalize_host(host, pattern.r)
    if not host_masks:
        return CopyCount(0, True)

    supports: set[int] = set()
    pulled = 0
    exhausted = True
    for emb in iter_embeddings(host_masks, pattern):
        pulled += 1
        if pulled > budget:
            exhausted = False
            break
        sup = 0
        for _, img in emb.line_images:
            sup |= img
        supports.add(sup)

    sups = sorted(supports)
    bound = len(sups)
    best = 0
    nodes = 0
    clean = True

    def pack(i: int, used: int, cnt: int) -> None:
        nonlocal best, nodes, clean
        if cnt > best:
            best = cnt
        for j in range(i, bound):
            if cnt + (bound - j) <= best:
                return
            if sups[j] & used:
                continue
            nodes += 1
            if nodes > budget:
                clean = False
                return
            pack(j + 1, used | sups[j], cnt + 1)

    pack(0, 0, 0)
    return CopyCount(best, exhausted and clean)


def abundance_trend(
    h: SparsePavingMatroid,
    n_values,
    m: int,
    samples: int,
    seed: int,
    pool_cap: int = DEFAULT_POOL_CAP,
) -> list[dict]:
    """Per-n fractions of matroids with an abundant contraction for h.

    The population is johnson.Population with tag "abundance": all of S_n
    when samples == 0 (refused with BudgetExceededError past the census
    cap), one member per S_n-orbit weighted by the orbit's size, otherwise
    that many seeded draws.  For each member M the contraction candidates
    are the independent sets of size r(M) - r(h): all of them when there
    are at most pool_cap d-subsets of [n], otherwise a pool drawn with a
    seed derived from the member's index.  An exhaustive population takes
    all of them whatever pool_cap says, so that its hits are invariant
    under relabelling [n] and one member stands for its orbit; under the
    census cap C(n, d) <= C(7, 3) = 35 is far below DEFAULT_POOL_CAP.  A
    member counts as a disjoint-copies hit when some candidate quotient
    packs at least m element-disjoint copies of L(h), and as a clean-copy
    hit when some candidate yields a clean copy of h itself.  An empty L(h)
    needs zero copies, so its hit rate is 1 by convention.  Identical seeds
    give identical tables.
    """
    if m < 0:
        raise ValueError("copy requirement must be nonnegative")
    pattern = h.structure
    rows = []
    for n in n_values:
        pop = Population(n, samples, seed, "abundance")
        disjoint_hits = 0
        clean_hits = 0
        for i, (mat, weight) in enumerate(pop):
            d = mat.r - h.r
            if not pattern.masks:
                disjoint_hits += weight  # zero copies always pack
            if d < 0:
                continue
            cap = comb(n, d) if pop.exhaustive else pool_cap  # never a seeded pool
            dis, cln = _contraction_hits(
                mat, h, d, pattern if pattern.masks else None, m, seed, n, i, cap
            )
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
                "exact": pop.exact,
            }
        )
    return rows


def _contraction_pool(mat: SparsePavingMatroid, d: int, rng: random.Random, cap: int):
    """Independent d-subsets of mat, all of them when few enough, else a seeded sample."""
    if comb(mat.n, d) <= cap:
        yield from independent_subsets(mat, d)
        return
    ground = range(1, mat.n + 1)
    seen = set()
    attempts = 0
    while len(seen) < cap and attempts < 10 * cap:
        attempts += 1
        a = mask_of(rng.sample(ground, d))
        if a in seen:
            continue
        seen.add(a)
        if mat.rank(a) == d:
            yield a


def _contraction_hits(mat, h, d, pattern, m, seed, n, i, pool_cap):
    rng = random.Random(derive_seed(seed, "pool", n, i))
    dis_hit = 0
    cln_hit = 0
    for a in _contraction_pool(mat, d, rng, pool_cap):
        if not dis_hit and pattern is not None:
            q = contract(mat, a)
            if count_disjoint_copies(q.dependents, pattern).count >= m:
                dis_hit = 1
        if not cln_hit and clean_copy_minor(mat, a, h) is not None:
            cln_hit = 1
        if (dis_hit or pattern is None) and cln_hit:
            break
    return dis_hit, cln_hit
