"""The Johnson graph J(n, r) and its stable sets.

Vertices are the r-subsets of [n]; two vertices are adjacent when they
meet in r-1 elements.  Stable sets of J(n, r) are exactly the non-basis
families of sparse paving matroids (after discarding the one stable set
that leaves no basis, which only matters for r in {0, n}).

The enumeration order is pinned: depth-first, vertices in ascending
bitmask order, each stable set emitted before its extensions and
extensions tried smallest-new-vertex first.  Counting and exact-uniform
sampling share one recursion (branch on a max-degree vertex, split into
connected components), so sampling never materializes the full list of
stable sets.  Each graph keeps two memos of it: the count memo maps a
component to its number of stable sets, plus the graph total, and the
draw memo maps a component to its pivot, the count without the pivot and
the components of each branch.  Only draws grow the draw memo, one node
at a time; after 2000 draws at n = 8 it holds about 15k nodes (4.0 MiB).

Both samplers, exact and Glauber, read each bounded integer straight from
rng.getrandbits by the rejection loop of CPython's randrange (draw
k = bit_length bits until the value is below the bound), so they make
the same draws and leave the RNG in the same state as randrange would;
tests/oracles.py pins this against randrange-based reference samplers.

johnson_graph(n, r, budget) is the one admission check for exact work: it
refuses J(n, r) past budget vertices (default 105 = C(15, 2)), and on a
graph it admits, counting, exact draws, enumeration and m'(I) all run
exactly.  Admitted graphs count in about 7 s at most (J(9,3), J(15,2));
the next sizes, J(10,3), J(16,2) and J(9,4), do not.  Every census and
count uses the default, which admits every rank of n <= 8 and refuses
J(9,4), so n >= 9.  Only the Glauber chain reads a graph past the
budget, through the unchecked _graph, and only when a caller forces it
(sample_stable_uniform's force_glauber).

Every stable set of J(n, r) has an S_n-orbit under relabelling [n].
JohnsonGraph.orbits, memoized per graph and built on first use only,
keeps one representative per orbit with its weight n!/|Aut|, the orbit's
size; the weights of J(n, r) sum to its count of stable sets.  J(7,3)
has 5,596 stable sets in 14 orbits.  A representative is a canonical
form, found by individualisation-refinement on the elements of [n] and
pruned by the automorphisms it finds (_canonical_form), which also gives
|Aut| and generators of Aut; a representative is extended once per
Aut-orbit of the vertices it admits.  The orbits of every J(8, r) take
about 0.3 s, and those of J(15, 2), the matchings of K_15, 0.02 s.

Population is the one census population built on these, admitted as a
whole by the vertex budget or refused.  An exhaustive one (samples == 0)
covers all of S_n as the orbits of every rank, each member weighted by
n!/|Aut|; S_8, the largest admitted, has 4,317,278 members in 350 orbits.
It is admitted by johnson_graphs(n) and counts nothing.  A sampled one
is seeded exact draws of sample_sparse_paving, each of weight 1.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .bits import as_mask, ascending_subsets, elements_of, full_mask, iter_bits
from .core import LineStructure, SparsePavingMatroid
from .errors import BadCardinalityError, BudgetExceededError, NotStableError

DEFAULT_VERTEX_BUDGET = 105  # johnson_graph refuses J(n, r) with more vertices than this
GLAUBER_BURN_FACTOR = 100  # default burn-in is this many sweeps times C(n, r)


def max_stable_bound(n: int, r: int) -> Fraction:
    """Upper bound C(n, r) / (n + 1 - r) on the size of a stable set of J(n, r).

    Counting incidences between a stable set and the (r-1)-subsets shows the
    bound; it is attained exactly when a suitable block design exists, e.g.
    the seven triples of fano_triples() for (n, r) = (7, 3).
    """
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} outside 0..{n}")
    return Fraction(comb(n, r), n + 1 - r)


def byskov_bound(n_vertices: int, k: int) -> int:
    """Maximum possible number of maximal independent sets of size k.

    For a graph on N vertices the count of size-k maximal independent sets
    is at most floor(N/k)^(k-a) * (floor(N/k)+1)^a with a = N mod k.
    """
    if k < 1 or k > n_vertices:
        raise ValueError(f"k={k} outside 1..{n_vertices}")
    q, a = divmod(n_vertices, k)
    return q ** (k - a) * (q + 1) ** a


def shadow(family, n: int | None = None) -> tuple[int, ...]:
    """All (r-1)-subsets obtained by deleting one element from a family member."""
    out = set()
    for s in family:
        m = as_mask(s, n)
        mm = m
        while mm:
            low = mm & -mm
            mm ^= low
            out.add(m ^ low)
    return tuple(sorted(out))


def local_lym_ok(n: int, r: int, family) -> bool:
    """Exact check of |shadow(A)| / C(n, r-1) >= |A| / C(n, r), by cross-multiplying."""
    if not 1 <= r <= n:
        raise ValueError(f"rank {r} outside 1..{n}")
    masks = {as_mask(s, n) for s in family}
    for m in masks:
        if m.bit_count() != r:
            raise BadCardinalityError("family is not r-uniform")
    return len(shadow(masks)) * comb(n, r) >= len(masks) * comb(n, r - 1)


def fano_triples() -> LineStructure:
    """The seven triples of the unique Steiner triple system on seven points.

    Pairwise intersections all have size one, so the family is a stable set
    of J(7, 3) of size 7 = C(7, 3) / 5, meeting max_stable_bound exactly.
    """
    blocks = [
        {1, 2, 3}, {1, 4, 5}, {1, 6, 7},
        {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6},
    ]
    return LineStructure.from_sets(3, blocks, 7)


def _root(forest, x: int) -> int:
    """The root of x in a union-find forest (list or dict, x -> parent), halving the path."""
    while forest[x] != x:
        forest[x] = x = forest[forest[x]]
    return x


def _join(forest, x: int, y: int) -> None:
    """Merge the trees of x and y under the lesser of their roots."""
    a, b = _root(forest, x), _root(forest, y)
    forest[max(a, b)] = min(a, b)


def _free_swaps(k: int, n: int) -> list[tuple[int, ...]]:
    """The adjacent transpositions of bits 0..k-1 as permutations of [n]; they generate S_k."""
    swaps = []
    for j in range(k - 1):
        p = list(range(n))
        p[j], p[j + 1] = j + 1, j
        swaps.append(tuple(p))
    return swaps


def _canonical_form(n: int, family) -> tuple[tuple[int, ...], int, list[tuple[int, ...]]]:
    """Least sorted image of a family of subsets of [n], |Aut| and generators of Aut(image).

    Individualisation-refinement, after McKay and Piperno ("Practical graph
    isomorphism, II", J. Symbolic Comput. 60, 2014).  The elements held by
    some member start in cells by degree.  Refinement splits each cell by
    member profile, the sorted list over the members holding an element of
    the sorted cells of that member's other elements, until no cell splits;
    cells are numbered by sorted key, so the partition is a function of the
    family that every relabelling carries along.  The search individualises
    each element of the first cell of two or more elements in turn, refines
    and recurses; a leaf, where every cell is one element, sends the
    element of cell c to bit k + c.  The k elements in no member move no
    member, so they keep bits 0..k-1 in label order and count by k!.
    Relabelling the family relabels its search tree alike, so isomorphic
    families reach the same least image.

    The search prunes by automorphisms.  A later leaf with the first leaf's
    image gives an automorphism of the family (the first leaf's labelling
    followed by the inverse of this one's), and the search jumps back to
    the node of the first path where this leaf's path branched off.  At a
    node of the first path, a child is skipped when an automorphism found
    so far (each fixes the path above the node) maps an explored child onto
    it; an automorphism carries a subtree onto one with the same images, so
    the least image is still met.  Once a first-path node is done, the
    orbit of its first child under the automorphisms found is its orbit
    under the whole stabiliser of the path, so by orbit-stabiliser |Aut| is
    k! times the product of those orbit sizes.  The automorphisms found,
    carried to the image by the least leaf's labelling, and the adjacent
    transpositions of bits 0..k-1 generate Aut of the image.
    """
    members = [tuple(iter_bits(m)) for m in family]
    holds: list[list[int]] = [[] for _ in range(n)]  # element -> the members holding it
    for i, es in enumerate(members):
        for e in es:
            holds[e].append(i)
    support = [e for e in range(n) if holds[e]]
    k = n - len(support)
    width = max(map(len, members), default=0).bit_length()
    first: list[int] | None = None  # the first leaf's labelling, element -> cell
    first_image: list[int] = []
    best: list[int] = []
    best_cell: list[int] = []
    found: list[list[int]] = []  # automorphisms of the family, element -> element
    orbit = list(range(n))  # union-find forest of the orbits of the automorphisms found
    aut = factorial(k)

    def refine(cell: list[int]) -> int:
        """Split cell (element -> cell number) in place until stable; the number of cells.

        A member's code packs the multiset of its elements' cells, one
        width-bit count per cell; with the element's own cell it gives the
        sorted cells of the member's other elements.
        """
        cells = len({cell[e] for e in support})
        while True:
            weight = {e: 1 << (width * cell[e]) for e in support}
            code = [sum([weight[e] for e in es]) for es in members]
            keyed = sorted([(cell[e], sorted([code[i] for i in holds[e]]), e) for e in support])
            c, prev = -1, None
            for old, profile, e in keyed:
                if (old, profile) != prev:
                    c, prev = c + 1, (old, profile)
                cell[e] = c
            if c + 1 in (cells, len(support)):  # stable, or nothing left to split
                return c + 1
            cells = c + 1

    def leaf(cell: list[int]) -> bool:
        """Keep the least image; True when this leaf has the first leaf's image."""
        nonlocal first, first_image, best, best_cell
        image = sorted([sum([1 << (k + cell[e]) for e in es]) for es in members])
        if first is None:
            first, first_image, best, best_cell = cell, image, image, cell
            return False
        if image == first_image:
            at = [0] * len(support)  # cell -> element at this leaf
            for e in support:
                at[cell[e]] = e
            gamma = list(range(n))
            for e in support:
                gamma[e] = at[first[e]]
                _join(orbit, e, gamma[e])
            found.append(gamma)
            return True
        if image < best:
            best, best_cell = image, cell
        return False

    def search(cell: list[int], on_first_path: bool) -> bool:
        """Search below a node; True when a leaf off the first path had the first leaf's image."""
        nonlocal aut
        cells = refine(cell)
        if cells == len(support):
            return leaf(cell)
        size = [0] * cells
        for e in support:
            size[cell[e]] += 1
        target = next(c for c, s in enumerate(size) if s > 1)
        kids = [v for v in support if cell[v] == target]
        if not on_first_path:
            return any(
                search([2 * c + (c == target and e != v) for e, c in enumerate(cell)], False)
                for v in kids
            )
        explored: list[int] = []
        for v in kids:
            if explored and _root(orbit, v) in {_root(orbit, u) for u in explored}:
                continue
            search([2 * c + (c == target and e != v) for e, c in enumerate(cell)], not explored)
            explored.append(v)
        o = _root(orbit, kids[0])
        aut *= sum(_root(orbit, v) == o for v in kids)
        return False

    search([len(h) for h in holds], True)
    gens = _free_swaps(k, n)
    for gamma in found:
        p = list(range(n))
        for e in support:
            p[k + best_cell[e]] = k + best_cell[gamma[e]]
        gens.append(tuple(p))
    return tuple(best), aut, gens


class StableSample(NamedTuple):
    """One sampled stable set, with provenance of the sampling method."""

    masks: tuple[int, ...]
    exact: bool
    method: str


class ExtensionResult(NamedTuple):
    """Maximal stable superset of the input; exact is always True."""

    masks: tuple[int, ...]
    exact: bool


class JohnsonGraph:
    """J(n, r) with precomputed adjacency bitmasks over vertex indices."""

    def __init__(self, n: int, r: int):
        if not 0 <= r <= n:
            raise ValueError(f"rank {r} outside 0..{n}")
        self.n = n
        self.r = r
        vs = ascending_subsets(n, r)
        self.vertices: tuple[int, ...] = vs
        self.index: dict[int, int] = {m: i for i, m in enumerate(vs)}
        nv = len(vs)
        adj = [0] * nv
        for i in range(nv):
            vi = vs[i]
            for j in range(i + 1, nv):
                if (vi & vs[j]).bit_count() == r - 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        self.adj: tuple[int, ...] = tuple(adj)
        self.vertex_count = nv
        self._count_memo: dict[int, int] = {}
        self._total: int | None = None
        self._draw_memo: dict[int, list] = {}
        self._best_memo: dict[int, tuple[int, int]] = {}
        self._orbits: tuple | None = None

    # -- index/mask conversions -------------------------------------------

    def indices_of(self, family) -> int:
        """Vertex-index indicator for a family of r-subsets of [n]."""
        ind = 0
        for s in family:
            m = as_mask(s, self.n)
            i = self.index.get(m)
            if i is None:
                raise BadCardinalityError(
                    f"{set(elements_of(m))} is not an r-subset of [{self.n}]"
                )
            ind |= 1 << i
        return ind

    def masks_of(self, indicator: int) -> tuple[int, ...]:
        return tuple(self.vertices[i] for i in iter_bits(indicator))

    def _admissible(self, indicator: int) -> int:
        """Indicator of the vertices outside indicator with no neighbour in it."""
        cand = full_mask(self.vertex_count) & ~indicator
        for i in iter_bits(indicator):
            cand &= ~self.adj[i]
        return cand

    def indicator_is_stable(self, indicator: int) -> bool:
        for i in iter_bits(indicator):
            if self.adj[i] & indicator:
                return False
        return True

    # -- enumeration --------------------------------------------------------

    def stable_sets(self):
        """Yield every stable set (as a tuple of vertex masks) in pinned DFS order."""
        vs = self.vertices
        adj = self.adj
        out: list[int] = []

        def rec(cand: int):
            yield tuple(out)
            c = cand
            while c:
                low = c & -c
                c ^= low
                i = low.bit_length() - 1
                out.append(vs[i])
                yield from rec(c & ~adj[i])
                out.pop()

        yield from rec(full_mask(self.vertex_count))

    def maximal_stable_sets(self):
        """Yield the stable sets that no vertex extends, in stable_sets order."""
        for fam in self.stable_sets():
            if not self._admissible(self.indices_of(fam)):
                yield fam

    def orbits(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        """One stable set per S_n-orbit, as (masks, weight, maximal); built on first call.

        weight = n!/|Aut| is the size of the orbit, so the weights sum to
        count_stable_sets(), and maximal says that no vertex extends the
        set.  Representatives grow level by level: each one of size k is
        extended by one vertex of each orbit of its automorphism group on
        the vertices it admits (McKay, "Isomorph-free exhaustive
        generation", J. Algorithms 26, 1998), since the vertices of one
        orbit give isomorphic extensions, and each canonical form
        (_canonical_form, by individualisation-refinement) is kept once.
        The call that first gives a form also gives |Aut|, so the weight,
        and the generators of Aut that its own extensions use.  The order
        is pinned:
        by size, then by canonical form.  When 2r > n the orbits are the
        complements of those of J(n, n - r), with their weights, flags and
        order: complementing maps J(n, n - r) onto J(n, r) and commutes
        with S_n.
        """
        if self._orbits is None:
            if 2 * self.r > self.n:
                full = full_mask(self.n)
                self._orbits = tuple(
                    (tuple(sorted(full ^ m for m in masks)), weight, maximal)
                    for masks, weight, maximal in _graph(self.n, self.n - self.r).orbits()
                )
            else:
                self._orbits = self._grow_orbits()
        return self._orbits

    def _grow_orbits(self) -> tuple[tuple[tuple[int, ...], int, bool], ...]:
        n_fact = factorial(self.n)
        vs = self.vertices
        out = []
        level = {(): (1, _free_swaps(self.n, self.n))}  # canonical form -> (n!/|Aut|, Aut generators)
        while level:
            grown: dict[tuple[int, ...], tuple[int, list[tuple[int, ...]]]] = {}
            for masks, (weight, gens) in sorted(level.items()):
                cand = self._admissible(self.indices_of(masks))
                out.append((masks, weight, cand == 0))
                for i in self._least_of_orbits(cand, gens):
                    form, aut, form_gens = _canonical_form(self.n, masks + (vs[i],))
                    if form not in grown:
                        grown[form] = (n_fact // aut, form_gens)
            level = grown
        return tuple(out)

    def _least_of_orbits(self, cand: int, gens) -> list[int]:
        """The least vertex of each orbit of the group gens generates on the vertices of cand.

        gens are permutations of [n] that fix the set cand, as the
        automorphisms of a stable set fix the vertices it admits.
        """
        vs, index = self.vertices, self.index
        orbit = {i: i for i in iter_bits(cand)}  # union-find forest, each root its orbit's least
        for p in gens:
            for i in orbit:
                _join(orbit, i, index[sum([1 << p[e] for e in iter_bits(vs[i])])])
        return [i for i in orbit if orbit[i] == i]

    # -- counting and exact sampling ----------------------------------------

    def _components(self, mask: int) -> list[int]:
        """Components of the subgraph induced on mask, by smallest vertex.

        A search stops as soon as its component holds every vertex left.
        """
        adj = self.adj
        comps = []
        rem = mask
        while rem:
            comp = rem & -rem
            frontier = comp
            while frontier and comp != rem:
                nxt = 0
                f = frontier
                while f:
                    low = f & -f
                    f ^= low
                    nxt |= adj[low.bit_length() - 1]
                nxt &= mask & ~comp
                comp |= nxt
                frontier = nxt
            comps.append(comp)
            rem &= ~comp
        return comps

    def _pivot(self, mask: int) -> tuple[int, int]:
        """Max-degree vertex inside mask (first one on ties) and its degree."""
        adj = self.adj
        best_v, best_d = -1, -1
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_d, best_v = d, v
        return best_v, best_d

    def _count(self, mask: int) -> int:
        if mask == 0:
            return 1
        res = 1
        for comp in self._components(mask):
            res *= self._count_comp(comp)
        return res

    def _count_comp(self, comp: int) -> int:
        got = self._count_memo.get(comp)
        if got is not None:
            return got
        v, d = self._pivot(comp)
        if d == 0:
            res = 1 << comp.bit_count()
        else:
            bit = 1 << v
            res = self._count(comp ^ bit) + self._count(comp & ~self.adj[v] & ~bit)
        self._count_memo[comp] = res
        return res

    def count_stable_sets(self) -> int:
        """Exact number of stable sets, including the empty one."""
        if self._total is None:
            self._total = self._count(full_mask(self.vertex_count))
        return self._total

    def sample_stable_exact(self, rng: random.Random) -> tuple[int, ...]:
        """Draw one stable set exactly uniformly, via the counting recursion.

        Each component branches on its pivot: the pivot is left out with
        probability n_excl / count(component), and each branch draws its
        own components in turn, depth-first in lowest-bit order.  A lone
        vertex is in or out by a fair coin.  The draw memo keeps, per
        component met by a draw, [pivot, n_excl, excl, incl]; excl and
        incl are a branch's components, stored reversed for the stack.
        excl is found with the node, as n_excl is the product of its
        counts; incl is filled the first time a draw takes that branch.
        Only draws grow the memo (about 15k nodes after 2000 draws at
        n = 8); the counts stay in the count memo.  The branch test reads
        a number below the count from getrandbits by the rejection loop of
        CPython's randrange, inlined.  The result and the RNG stream are
        those of the plain recursion, which recomputes every pivot and
        split and calls randrange (tests/oracles.py ReferenceDraw pins
        this).
        """
        memo = self._draw_memo
        counts = self._count_memo
        getrandbits = rng.getrandbits
        ind = 0
        stack = [full_mask(self.vertex_count)]  # J(n, r) is connected
        while stack:
            comp = stack.pop()
            if not comp & (comp - 1):  # a component without edges is one vertex
                if getrandbits(1):
                    ind |= comp
                continue
            node = memo.get(comp)
            if node is None:
                v, _ = self._pivot(comp)
                self._count_comp(comp)  # puts counts[comp] in place on a cold graph
                excl = self._components(comp ^ (1 << v))
                n_excl = 1
                for c in excl:
                    n_excl *= self._count_comp(c)
                node = memo[comp] = [v, n_excl, tuple(reversed(excl)), None]
            v, n_excl, excl, incl = node
            bit = 1 << v
            total = counts[comp]
            k = total.bit_length()
            x = getrandbits(k)
            while x >= total:
                x = getrandbits(k)
            if x < n_excl:
                stack.extend(excl)
            else:
                ind |= bit
                if incl is None:
                    rest = comp & ~self.adj[v] & ~bit
                    incl = node[3] = tuple(reversed(self._components(rest)))
                stack.extend(incl)
        return self.masks_of(ind)

    # -- approximate sampling -------------------------------------------------

    def sample_stable_glauber(
        self, rng: random.Random, burn_in: int | None = None
    ) -> tuple[int, ...]:
        """Single-site dynamics at fugacity 1, started from the empty set.

        Each step picks a vertex uniformly; a vertex with no chosen neighbor
        is resampled to present/absent with probability 1/2 each.  The chain
        is reversible with the uniform distribution over stable sets as its
        stationary law; burn_in defaults to GLAUBER_BURN_FACTOR * C(n, r),
        and a negative burn_in raises ValueError.

        The vertex is read from getrandbits by CPython's randrange(nv)
        rejection loop, inlined to save its call overhead, and the coin is
        getrandbits(1): the states and the RNG stream are those of the
        randrange chain (tests/oracles.py ReferenceGlauber pins this).
        """
        if burn_in is None:
            burn_in = GLAUBER_BURN_FACTOR * self.vertex_count
        elif burn_in < 0:
            raise ValueError(f"burn_in {burn_in} is negative")
        adj = self.adj
        nv = self.vertex_count
        getrandbits = rng.getrandbits
        k = nv.bit_length()
        state = 0
        for _ in range(burn_in):
            v = getrandbits(k)
            while v >= nv:
                v = getrandbits(k)
            if adj[v] & state:
                continue
            if getrandbits(1):
                state |= 1 << v
            else:
                state &= ~(1 << v)
        return self.masks_of(state)

    # -- maximal extensions ----------------------------------------------------

    def maximal_extension(self, family) -> ExtensionResult:
        """The greatest maximal stable superset, by size, then vertex indicator.

        For equal sizes, comparing indicators equals comparing the two
        sorted vertex-bitmask lists from the top: the set whose largest
        unshared vertex mask is bigger wins.  Exact on every graph
        johnson_graph admits: a memoized branch on the top vertex with a
        component split.  Because the result maximizes a fixed total order
        over all stable supersets, any stable set I' between I and the
        extension has the same extension.
        """
        ind = self.indices_of(family)
        if not self.indicator_is_stable(ind):
            raise NotStableError("input family is not stable")
        _, extra = self._best(self._admissible(ind))
        return ExtensionResult(self.masks_of(ind | extra), True)

    def _best(self, mask: int) -> tuple[int, int]:
        size, ind = 0, 0
        for comp in self._components(mask):
            s, i = self._best_comp(comp)
            size += s
            ind |= i
        return size, ind

    def _best_comp(self, comp: int) -> tuple[int, int]:
        got = self._best_memo.get(comp)
        if got is not None:
            return got
        v = comp.bit_length() - 1
        bit = 1 << v
        rest = comp ^ bit
        s_in, i_in = self._best(rest & ~self.adj[v])
        s_ex, i_ex = self._best(rest)
        res = max((s_in + 1, i_in | bit), (s_ex, i_ex))
        self._best_memo[comp] = res
        return res


_GRAPHS: dict[tuple[int, int], JohnsonGraph] = {}


def _graph(n: int, r: int) -> JohnsonGraph:
    """The shared J(n, r), built on first use; no budget check."""
    g = _GRAPHS.get((n, r))
    if g is None:
        g = _GRAPHS[(n, r)] = JohnsonGraph(n, r)
    return g


def johnson_graph(n: int, r: int, budget: int = DEFAULT_VERTEX_BUDGET) -> JohnsonGraph:
    """The shared J(n, r), refused past budget vertices; memos persist per (n, r)."""
    if comb(n, r) > budget:
        raise BudgetExceededError(
            f"J({n},{r}) has {comb(n, r)} vertices, budget {budget}"
        )
    return _graph(n, r)


def johnson_graphs(n: int) -> list[JohnsonGraph]:
    """J(n, r) for r = 0..n, all admitted by the vertex budget or none (n >= 9)."""
    return [johnson_graph(n, r) for r in range(n + 1)]


def count_sparse_paving(n: int) -> dict[int, int]:
    """Exact counts s_{n,r} of sparse paving matroids on [n] by rank.

    Equals the number of stable sets of J(n, r), except that for r in
    {0, n} the single-vertex graph has two stable sets but only the empty
    one leaves a basis.  Every rank's graph passes the vertex budget before
    any rank is counted, so n >= 9 raises BudgetExceededError at once.
    """
    graphs = johnson_graphs(n)
    return {r: 1 if r in (0, n) else g.count_stable_sets() for r, g in enumerate(graphs)}


def total_sparse_paving(n: int) -> int:
    return sum(count_sparse_paving(n).values())


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labels, for per-task RNG streams.

    Hash-based so that (seed, n, index) streams are independent of the order
    in which census cells are computed, which keeps outputs byte-identical.
    """
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_sparse_paving(n: int, seed: int) -> SparsePavingMatroid:
    """Draw a sparse paving matroid on [n] exactly uniformly.

    The rank is drawn by the exact per-rank counts s_{n,r}, then the stable
    set exactly at that rank.  Past the vertex budget count_sparse_paving
    raises BudgetExceededError before anything is drawn.
    """
    rng = random.Random(seed)
    counts = count_sparse_paving(n)
    pick = rng.randrange(sum(counts.values()))
    for r in range(n + 1):
        if pick < counts[r]:
            break
        pick -= counts[r]
    if r in (0, n):
        return SparsePavingMatroid(n, r, LineStructure(r, ()))
    masks = _graph(n, r).sample_stable_exact(rng)  # count_sparse_paving has admitted it
    return SparsePavingMatroid(n, r, LineStructure.build(r, masks, validate=False))


def _orbit_members(n: int):
    """(member, n!/|Aut|) for one member of each S_n-orbit of S_n, rank ascending."""
    for r in range(n + 1):
        if r in (0, n):
            yield SparsePavingMatroid(n, r, LineStructure(r, ())), 1
            continue
        for masks, weight, _ in johnson_graph(n, r).orbits():
            yield SparsePavingMatroid(n, r, LineStructure(r, masks)), weight


class Population:
    """The members of one census population, tallied by weight as they pass.

    The constructor is the admission point of every census table: unless
    every J(n, r) passes the vertex budget (so n <= 8) it raises
    BudgetExceededError, in either mode, and a negative samples raises
    ValueError; the budget is the only bound.  samples == 0 is all of S_n:
    it yields one member of each S_n-orbit of each rank, weighted by the
    orbit's size n!/|Aut| (JohnsonGraph.orbits, built on the first such
    walk), so a tally that is invariant under relabelling [n] and sums
    weights equals the tally over every labelled member; it is admitted by
    johnson_graphs(n) and counts nothing.  Otherwise member i is the exact
    draw sample_sparse_paving(n, derive_seed(seed, tag, n, i)) with weight
    1, admitted by count_sparse_paving(n), which the draws need.
    Iterating yields (member, weight) once; afterwards size and rank_hist
    (weighted) describe it.
    """

    def __init__(self, n: int, samples: int, seed: int, tag: str):
        if samples < 0:
            raise ValueError(f"samples {samples} is negative")
        self.exhaustive = samples == 0
        if self.exhaustive:
            johnson_graphs(n)
            self._members = _orbit_members(n)
        else:
            count_sparse_paving(n)
            self._members = (
                (sample_sparse_paving(n, derive_seed(seed, tag, n, i)), 1) for i in range(samples)
            )
        self.size = 0
        self._hist: dict[int, int] = {}

    def __iter__(self):
        for m, weight in self._members:
            self.size += weight
            self._hist[m.r] = self._hist.get(m.r, 0) + weight
            yield m, weight

    @property
    def rank_hist(self) -> dict[int, int]:
        return dict(sorted(self._hist.items()))

    def share(self, k) -> Fraction:
        """k over the population size, or 0 for an empty population."""
        return Fraction(k, self.size) if self.size else Fraction(0)


def sample_stable_uniform(
    n: int,
    r: int,
    seed: int,
    force_glauber: bool = False,
    burn_in: int | None = None,
) -> StableSample:
    """Sample a stable set of J(n, r), exactly uniformly unless force_glauber.

    The exact draw is counting-based (no list is materialized) and needs
    johnson_graph to admit J(n, r): past the vertex budget it raises
    BudgetExceededError.  force_glauber runs the Glauber chain on any
    graph instead, an approximate-uniform draw flagged exact=False.  Equal
    seeds give identical results.  A negative burn_in raises ValueError on
    either path.
    """
    if burn_in is not None and burn_in < 0:
        raise ValueError(f"burn_in {burn_in} is negative")
    rng = random.Random(seed)
    if force_glauber:
        return StableSample(_graph(n, r).sample_stable_glauber(rng, burn_in), False, "glauber")
    return StableSample(johnson_graph(n, r).sample_stable_exact(rng), True, "exact-count")
