"""Slow, independent reimplementations used to cross-check the fast paths.

Everything here works on plain frozensets and ranges, never on bitmasks,
so agreement with the library is evidence rather than tautology.  Keep n
small; most of these are exponential on purpose.  Seven exceptions work on
the library's masks, kept as they were as references: for the minor
search, clean_copy_scout, the embedding-first scan the library replaced by
its window-first search, and reference_minor_after, that window-first
search as it was before window tables; for embeddings,
reference_embeddings, the search that tries every order of each line's
free elements, twins or not; for pattern copies,
reference_copy_table, the copy-table walk that placed the pattern's
regions straight into [n], once per automorphism of each copy; for
ex_density, reference_ex_search, a branch and bound over stable families
that prunes on vertex count alone; for
the orbits, reference_canonical_form, the canonical-form search that
visited every leaf and counted |Aut| by the leaves reaching the least
image, and reference_orbits, the growth that tried every admissible
vertex with it.  iter_all_matroids walks the library's stable-set
enumeration: it is the labelled population that the exhaustive censuses
replaced by S_n-orbits.
"""
from itertools import combinations, permutations
from math import factorial

from sparsepaving import (
    BadCardinalityError,
    LineStructure,
    contract,
    elements_of,
    independent_subsets,
    iter_embeddings,
    johnson_graph,
    make_sparse_paving,
    mask_of,
)
from sparsepaving.bits import as_mask, full_mask, iter_bits
from sparsepaving.johnson import max_stable_bound
from sparsepaving.minors import Embedding, MinorWitness


def r_subsets(n, r):
    return [frozenset(c) for c in combinations(range(1, n + 1), r)]


def is_stable_family(family, r):
    fam = [frozenset(a) for a in family]
    return all(
        len(a & b) != r - 1 for i, a in enumerate(fam) for b in fam[i + 1:]
    )


def all_stable_families(n, r):
    """Every stable family of J(n, r) by power-set filtering (n <= 5)."""
    verts = r_subsets(n, r)
    out = []
    for bits in range(1 << len(verts)):
        fam = [verts[i] for i in range(len(verts)) if (bits >> i) & 1]
        if is_stable_family(fam, r):
            out.append(frozenset(fam))
    return out


def stable_families_pruned(n, r):
    """Stable families by set recursion with early pruning; reaches n = 6."""
    verts = r_subsets(n, r)
    out = []

    def rec(i, fam):
        out.append(frozenset(fam))
        for j in range(i, len(verts)):
            v = verts[j]
            if all(len(v & u) != r - 1 for u in fam):
                fam.append(v)
                rec(j + 1, fam)
                fam.pop()

    rec(0, [])
    return out


def iter_all_matroids(n):
    """All sparse paving matroids on [n], one per labelled non-basis family.

    Rank ascending, each rank in the pinned depth-first order of
    JohnsonGraph.stable_sets.
    """
    for r in range(n + 1):
        if r in (0, n):
            yield make_sparse_paving(n, r, [])
            continue
        for fam in johnson_graph(n, r).stable_sets():
            yield make_sparse_paving(n, r, LineStructure.build(r, fam))


def dual(m):
    """The dual matroid M*: rank n - r, each non-basis replaced by its complement.

    The bases of M* are the complements of the bases of M, and so are its
    non-bases; complementing keeps the family stable in J(n, n - r).
    """
    ground = frozenset(range(1, m.n + 1))
    return make_sparse_paving(
        m.n, m.n - m.r, [ground - frozenset(elements_of(c)) for c in m.nonbases]
    )


def gf2_rank(vectors):
    """Rank over GF(2) of vectors given as frozensets, sum = symmetric difference."""
    pivots = {}
    for v in vectors:
        while v:
            top = max(v)
            if top not in pivots:
                pivots[top] = v
                break
            v = v ^ pivots[top]
    return len(pivots)


def is_binary(m):
    """Whether M is representable over GF(2), by the fundamental-circuit test.

    Fix the first basis B.  The column of b in B is {b}; the column of
    e outside B is the set of b in B with B - b + e a basis, the rest of
    e's fundamental circuit.  A binary matroid has one representation up
    to row operations, and with B as the identity it is this one, so M is
    binary if and only if every r-set has GF(2) rank r among these
    columns exactly when it is a basis (Oxley, Matroid Theory, 2nd ed.,
    2011, ch. 6).  By Tutte's theorem this is also "no U_{2,4} minor".
    """
    nonbases = set(m.structure.lines)
    b = next(s for s in r_subsets(m.n, m.r) if s not in nonbases)
    column = {
        e: frozenset([e]) if e in b else frozenset(x for x in b if b - {x} | {e} not in nonbases)
        for e in range(1, m.n + 1)
    }
    return all(
        (gf2_rank(column[e] for e in s) == m.r) == (s not in nonbases)
        for s in r_subsets(m.n, m.r)
    )


def johnson_vertices(n, r):
    """The r-subsets of [n] in colex order, which is the library's
    ascending-bitmask order, and each one's neighbours as a frozenset of
    indices."""
    verts = sorted(r_subsets(n, r), key=lambda s: sorted(s, reverse=True))
    idx = range(len(verts))
    nbrs = [frozenset(j for j in idx if len(verts[i] & verts[j]) == r - 1) for i in idx]
    return verts, nbrs


class ReferenceDraw:
    """Exact uniform draw on J(n, r) by the unmemoised pivot-and-split recursion.

    Vertices are johnson_vertices(n, r) and vertex sets are frozensets of
    indices.
    Each component branches on its max-degree vertex (the first one on
    ties); components are visited by smallest vertex; the pivot is left out
    when randrange(count) falls below the count without it; an isolated
    vertex takes one fair coin, in ascending order.  Only counts are cached,
    so a draw recomputes every pivot and component split.
    """

    def __init__(self, n, r):
        self.verts, self.nbrs = johnson_vertices(n, r)
        self._counts = {}

    def components(self, verts):
        left = set(verts)
        comps = []
        while left:
            comp = {min(left)}
            frontier = set(comp)
            while frontier:
                frontier = set().union(*(self.nbrs[u] for u in frontier)) & left - comp
                comp |= frontier
            left -= comp
            comps.append(frozenset(comp))
        return comps

    def pivot(self, comp):
        return max(sorted(comp), key=lambda u: len(self.nbrs[u] & comp))

    def count(self, verts):
        total = 1
        for comp in self.components(verts):
            total *= self.count_component(comp)
        return total

    def count_component(self, comp):
        if comp not in self._counts:
            v = self.pivot(comp)
            rest = comp - {v}
            if self.nbrs[v] & comp:
                got = self.count(rest) + self.count(rest - self.nbrs[v])
            else:
                got = 2 ** len(comp)
            self._counts[comp] = got
        return self._counts[comp]

    def draw(self, rng):
        """One stable set, as a frozenset of r-subsets of [n]."""
        chosen = []
        self._draw(frozenset(range(len(self.verts))), rng, chosen)
        return frozenset(self.verts[i] for i in chosen)

    def _draw(self, verts, rng, chosen):
        for comp in self.components(verts):
            v = self.pivot(comp)
            if not self.nbrs[v] & comp:
                chosen.extend(u for u in sorted(comp) if rng.getrandbits(1))
                continue
            rest = comp - {v}
            if rng.randrange(self.count_component(comp)) < self.count(rest):
                self._draw(rest, rng, chosen)
            else:
                chosen.append(v)
                self._draw(rest - self.nbrs[v], rng, chosen)


class ReferenceGlauber:
    """Single-site Glauber chain on J(n, r), one randrange call per step.

    Vertices are johnson_vertices(n, r) and the state is a set of indices.
    Each step picks v = randrange(number of vertices); a v with a chosen
    neighbour is left alone, any other v is put in or taken out by one
    getrandbits(1).
    """

    def __init__(self, n, r):
        self.verts, self.nbrs = johnson_vertices(n, r)

    def draw(self, rng, burn_in):
        """The state after burn_in steps from the empty set, as r-subsets."""
        state = set()
        for _ in range(burn_in):
            v = rng.randrange(len(self.verts))
            if self.nbrs[v] & state:
                continue
            if rng.getrandbits(1):
                state.add(v)
            else:
                state.discard(v)
        return frozenset(self.verts[i] for i in state)


def maximal_stable_families(n, r):
    fams = all_stable_families(n, r)
    verts = r_subsets(n, r)
    out = []
    for fam in fams:
        extendable = any(
            v not in fam and is_stable_family(list(fam) + [v], r) for v in verts
        )
        if not extendable:
            out.append(fam)
    return out


def shadow_of(family):
    out = set()
    for a in family:
        a = frozenset(a)
        for e in a:
            out.add(a - {e})
    return out


def bases_of(n, r, nonbases):
    nb = {frozenset(x) for x in nonbases}
    return [b for b in r_subsets(n, r) if b not in nb]


def exchange_ok(bases):
    """Basis-exchange axiom, checked literally over frozensets."""
    bl = [frozenset(b) for b in bases]
    if not bl:
        return False
    k = len(bl[0])
    if any(len(b) != k for b in bl):
        return False
    bs = set(bl)
    for b1 in bl:
        for b2 in bl:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in bs for y in b2 - b1):
                    return False
    return True


class GeneralMatroid:
    """A matroid stored as its explicit list of bases, for rank cross-checks.

    rank(X) is the largest |X & B| over the bases B, by brute force.
    """

    def __init__(self, n, bases):
        self.n = n
        self.bases = tuple(frozenset(b) for b in bases)

    @classmethod
    def from_bases(cls, n, bases, validate=True):
        if validate and not exchange_ok(bases):
            raise ValueError("family violates the basis-exchange axioms")
        return cls(n, bases)

    @classmethod
    def from_sparse_paving(cls, m):
        return cls(m.n, bases_of(m.n, m.r, m.structure.lines))

    def rank(self, subset):
        s = frozenset(subset)
        return max(len(s & b) for b in self.bases)

    def is_independent(self, subset):
        s = frozenset(subset)
        return any(s <= b for b in self.bases)


def rank_fn(bases):
    bl = [frozenset(b) for b in bases]

    def rank(x):
        x = frozenset(x)
        return max(len(x & b) for b in bl)

    return rank


def minor_on(bases, contract, keep):
    """Bases of (M / contract) | keep via the rank function; any contract set."""
    rank = rank_fn(bases)
    a = frozenset(contract)
    keep = frozenset(keep) - a
    ra = rank(a)
    best = []
    best_rank = -1
    for size in range(len(keep) + 1):
        for sub in combinations(sorted(keep), size):
            s = frozenset(sub)
            if rank(s | a) - ra == len(s):
                if len(s) > best_rank:
                    best_rank = len(s)
                    best = []
                if len(s) == best_rank:
                    best.append(s)
    return best, best_rank


def matroids_isomorphic(bases1, ground1, bases2, ground2):
    """Exhaustive bijection search; grounds are iterables of elements."""
    g1 = sorted(ground1)
    g2 = sorted(ground2)
    if len(g1) != len(g2):
        return False
    b1 = {frozenset(b) for b in bases1}
    b2 = {frozenset(b) for b in bases2}
    if len(b1) != len(b2):
        return False
    for perm in permutations(g2):
        m = dict(zip(g1, perm))
        if {frozenset(m[e] for e in b) for b in b1} == b2:
            return True
    return False


def has_minor_oracle(m, h):
    """General minor semantics: all independent contract sets, all windows.

    m, h are SparsePavingMatroid-likes exposing n, r, structure.lines.  The
    contract set ranges over independent sets of every size; rank-deficient
    windows are allowed and judged by the resulting basis family.
    """
    mb = bases_of(m.n, m.r, m.structure.lines)
    hb = bases_of(h.n, h.r, h.structure.lines)
    hg = range(1, h.n + 1)
    rank = rank_fn(mb)
    ground = range(1, m.n + 1)
    for asize in range(m.r + 1):
        for a in combinations(ground, asize):
            if rank(a) != asize:
                continue
            rest = [e for e in ground if e not in a]
            if len(rest) < h.n:
                continue
            for keep in combinations(rest, h.n):
                minor_bases, minor_rank = minor_on(mb, a, keep)
                if minor_rank != h.r:
                    continue
                if matroids_isomorphic(minor_bases, keep, hb, hg):
                    return True
    return False


def clean_copy_scout(m, contract_set, h):
    """Embedding-first search for H inside M / A, as (kept window, embedding).

    A must be independent of size r(M) - r(H).  The search walks embeddings
    of H's line structure into the quotient's dependents and then looks for
    an n(H)-element window around the image that contains no dependent set
    beyond the embedded ones.
    """
    a = as_mask(contract_set, m.n)
    if h.r > m.r:
        raise ValueError("target rank exceeds the host rank")
    if a.bit_count() != m.r - h.r:
        raise BadCardinalityError(
            f"contraction set must have {m.r - h.r} elements, got {a.bit_count()}"
        )
    q = contract(m, a)  # validates independence
    if q.groundset.bit_count() < h.n:
        return None
    deps = q.dependents
    dep_set = set(deps)
    for emb in iter_embeddings(deps, h.structure):
        image = {hl for _, hl in emb.line_images}
        supp = 0
        for hl in image:
            supp |= hl
        extra_pool = elements_of(q.groundset & ~supp)
        need = h.n - supp.bit_count()
        for extra in combinations(extra_pool, need):
            e = supp | mask_of(extra)
            stray = any(dep & e == dep and dep not in image for dep in dep_set)
            if not stray:
                return e, emb
    return None


def clean_copy_scout_hit(m, h):
    """Whether some independent A of size r(M) - r(H) has a scout hit."""
    d = m.r - h.r
    if d < 0 or m.n < h.n:
        return False
    return any(clean_copy_scout(m, a, h) is not None for a in independent_subsets(m, d))


def reference_complete_iso(h, kept, emb):
    """The witness isomorphism: off-line elements of H onto the spare kept ones."""
    support = h.structure.support
    taken = {hv for _, hv in emb.element_map}
    spare = [e for e in elements_of(kept) if e not in taken]
    iso = {p: hv for p, hv in emb.element_map}
    for e in range(1, h.n + 1):
        if not support >> (e - 1) & 1:
            iso[e] = spare.pop(0)
    return tuple(sorted(iso.items()))


def reference_minor_after(m, a, h):
    """First n(H)-window of M / A realizing H, or None, by a direct walk.

    Contracts A, walks the n(H)-windows of the quotient ground set in
    lexicographic order, keeps those holding exactly |L(H)| dependent sets
    and embeds L(H) into them.  This is the library's search before it
    moved to window tables; its witnesses are the ones the tables must
    reproduce.
    """
    q = contract(m, a)
    pattern = h.structure
    want = len(pattern.masks)
    for keep_elems in combinations(elements_of(q.groundset), h.n):
        e = mask_of(keep_elems)
        inside = [dep for dep in q.dependents if dep & e == dep]
        if len(inside) != want:
            continue
        emb = next(iter_embeddings(inside, pattern), None)
        if emb is None:
            continue
        return MinorWitness(
            contracted=a,
            kept=e,
            deleted=m.groundset & ~a & ~e,
            iso=reference_complete_iso(h, e, emb),
            embedding=emb,
        )
    return None


def reference_first_minor(m, h):
    """reference_minor_after over the independent A of size r(M) - r(H), in order."""
    hits = (reference_minor_after(m, a, h) for a in independent_subsets(m, m.r - h.r))
    return next((w for w in hits if w is not None), None)


def reference_place(pat, order, k, host, fwd, used, taken, images):
    """Place pattern lines order[k:] onto unused host lines, in search order.

    fwd maps the placed pattern elements to host elements, used is the mask
    of their images, taken[i] marks host line i as an image and images
    lists the (pattern line, host line) pairs so far.  A line may go onto a
    host line that holds the images of its placed elements and of no other
    placed element; its free elements take the host line's free ones in
    every order.  Yields each completed embedding; fwd, taken and images
    are restored when the generator runs out.
    """
    if k == len(order):
        yield Embedding(tuple(sorted(fwd.items())), tuple(sorted(images)))
        return
    pl = pat[order[k]]
    img_mask = 0
    free_pat = []
    x = pl
    while x:
        low = x & -x
        x ^= low
        p = low.bit_length()
        if p in fwd:
            img_mask |= 1 << (fwd[p] - 1)
        else:
            free_pat.append(p)
    for hi, hl in enumerate(host):
        if taken[hi]:
            continue
        if img_mask & ~hl:
            continue  # a mapped element of this line lands outside hl
        if used & hl & ~img_mask:
            continue  # hl holds the image of an element not on this line
        free_host = []
        x = hl & ~img_mask
        while x:
            low = x & -x
            x ^= low
            free_host.append(low.bit_length())
        taken[hi] = True
        images.append((pl, hl))
        for perm in permutations(free_host):
            fwd.update(zip(free_pat, perm))
            yield from reference_place(pat, order, k + 1, host, fwd, used | hl, taken, images)
        for p in free_pat:
            del fwd[p]
        images.pop()
        taken[hi] = False


def reference_embeddings(host, pattern):
    """Every embedding of the pattern into the host masks, every order of every line.

    reference_place in the library's pinned order: lines by decreasing
    degree, then ascending mask; host lines in ascending mask order.
    """
    host = sorted(set(host))
    pat = pattern.masks
    degree = [sum(1 for q in pat if q is not p and p & q) for p in pat]
    order = tuple(sorted(range(len(pat)), key=lambda i: (-degree[i], pat[i])))
    yield from reference_place(pat, order, 0, host, {}, 0, [False] * len(host), [])


def max_lfree_count(n, r, pattern_sets, contains):
    """Naive ex(n, L): filter all stable families by the library's embedder."""
    best = 0
    for fam in all_stable_families(n, r):
        if contains(fam, pattern_sets) is None and len(fam) > best:
            best = len(fam)
    return best


def reference_copy_table(g, lines) -> dict[int, int]:
    """For each copy of the lines in J(n, r) and each line b of it, key -> b.

    The lines' Venn regions, (mask of line indices, element count), group
    the elements that lie on the same lines.  Every placement of the
    regions onto disjoint subsets of [n] gives a copy, n! / ((n - s)! *
    prod |region|!) placements in all for a support of s elements.  Copies
    and keys are masks over g's vertex indices: the key is the copy less b,
    and its value gains b, so a stable family completes a copy by adding v
    exactly when v is in the value of one of its (|lines| - 1)-subsets.
    """
    sizes: dict[int, int] = {}
    for e in range(g.n):
        on = sum(1 << j for j, line in enumerate(lines) if line >> e & 1)
        if on:
            sizes[on] = sizes.get(on, 0) + 1
    regions = list(sizes.items())
    index = g.index
    elements = [1 << e for e in range(g.n)]
    copies: set[int] = set()

    def place(k: int, free: int, images: list[int]) -> None:
        if k == len(regions):
            copies.add(sum(1 << index[m] for m in images))
            return
        on, size = regions[k]
        for pick in combinations([x for x in elements if x & free], size):
            s = sum(pick)
            place(k + 1, free ^ s, [m | s if on >> j & 1 else m for j, m in enumerate(images)])

    place(0, (1 << g.n) - 1, [0] * len(lines))
    table: dict[int, int] = {}
    for copy in copies:
        for i in iter_bits(copy):
            key = copy ^ 1 << i
            table[key] = table.get(key, 0) | 1 << i
    return table


def reference_ex_search(n, r, pattern):
    """Branch and bound for ex(n, L) over stable families in vertex order: (nodes, best).

    A branch dies when it completes a copy of the pattern, when too few
    later vertices remain, blocked or not, to beat the incumbent, or when
    the incumbent hits the stable-set size bound.  best is the list of
    vertex bits of the incumbent; no work budget applies.
    """
    g = johnson_graph(n, r)
    table = reference_copy_table(g, pattern.masks)
    nv = g.vertex_count
    cap = int(max_stable_bound(n, r))
    rest = len(pattern.masks) - 2
    best = []
    nodes = 0

    def dfs(start, chosen, blocked, forbidden):
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
    return nodes, best


def reference_canonical_form(n, family):
    """(least sorted image, |Aut|) of a family of subsets of [n], by a walk of every leaf.

    The library's refinement, cell numbering, target cell and leaf image,
    without pruning: each element of the first cell of two or more is
    individualised in turn at every node.  The leaves reaching the least
    image are one of them composed with each automorphism of the support,
    so they number |Aut| / k!, where k elements lie in no member.
    """
    members = [tuple(iter_bits(m)) for m in family]
    holds = [[] for _ in range(n)]
    for i, es in enumerate(members):
        for e in es:
            holds[e].append(i)
    support = [e for e in range(n) if holds[e]]
    k = n - len(support)
    width = max(map(len, members), default=0).bit_length()
    best = None
    hits = 0

    def refine(cell):
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
            if c + 1 in (cells, len(support)):
                return c + 1
            cells = c + 1

    def search(cell):
        nonlocal best, hits
        cells = refine(cell)
        if cells == len(support):
            image = sorted([sum([1 << (k + cell[e]) for e in es]) for es in members])
            if best is None or image < best:
                best, hits = image, 1
            elif image == best:
                hits += 1
            return
        size = [0] * cells
        for e in support:
            size[cell[e]] += 1
        target = next(c for c, s in enumerate(size) if s > 1)
        for v in support:
            if cell[v] == target:
                search([2 * c + (c == target and e != v) for e, c in enumerate(cell)])

    search([len(h) for h in holds])
    return tuple(best), factorial(k) * hits


def reference_orbits(g):
    """JohnsonGraph._grow_orbits by trying every admissible vertex with reference_canonical_form.

    Level by level, each representative in order of its form is extended
    by every vertex it admits, and each form is kept once with weight
    n!/|Aut|; the tuple is (masks, weight, maximal) per representative.
    """
    n_fact = factorial(g.n)
    out = []
    level = {(): 1}
    while level:
        grown = {}
        for masks, weight in sorted(level.items()):
            cand = full_mask(g.vertex_count)
            for i in iter_bits(g.indices_of(masks)):
                cand &= ~g.adj[i] & ~(1 << i)
            out.append((masks, weight, cand == 0))
            for i in iter_bits(cand):
                form, aut = reference_canonical_form(g.n, masks + (g.vertices[i],))
                grown.setdefault(form, n_fact // aut)
        level = grown
    return tuple(out)
