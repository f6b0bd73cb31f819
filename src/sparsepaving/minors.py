"""Contractions, restrictions, and minor containment for sparse paving matroids.

Contracting an independent set A sends each non-basis C containing A to
C - A; the images again meet pairwise in at most (r - |A|) - 2 elements,
so every quotient carries a line structure of its own.  Minor search
therefore only ever contracts by independent sets of size exactly
r(M) - r(H) and then deletes down to n(H) elements.

Two descriptions of "H sits in M / A" are the same test.  Window-first: some
n(H)-set E of the quotient holds dependent sets forming a copy of L(H), the
non-bases of H.  Embedding-first (a clean copy): some embedding of L(H)
into the quotient's dependents has a window E of n(H) elements, around its
image, that holds no other dependent set.  Given a window of the first
kind, the isomorphism restricted to the support of L(H) is an embedding
whose image is every dependent inside E, so E is clean.  Conversely a
clean window holds exactly the |L(H)| embedded lines; extending the
embedding's element map bijectively to the rest of E sends the non-bases
of H onto the dependents inside E, so E realizes H.  Hence one search,
window-first in lexicographic order, serves has_minor, the uniform
shortcut (L(H) empty) and clean_copy_minor (a single A).

The search reads its windows from a window table (_window_table): every
n(H)-subset of [n] in lexicographic order, each with the mask of the
r(H)-subsets of [n] inside it.  The table depends only on (n, r(H), n(H)),
so it is built once per target shape and kept in a small cache.  Its
C(n, n(H)) rows of C(n, r(H)) bits count against errors.WORK_BUDGET with
the (A, window) pairs, so an oversized shape raises BudgetExceededError
before any table is built; every shape the budget admits is searched to
the end.  Per A, the dependents of M / A are marked in one mask over
the same index, and a window holds exactly |L(H)| of them when one AND
and a popcount say so.  Dropping the windows that meet A leaves the
windows of [n] - A in their lexicographic order, so the windows are
visited in the same order as a direct walk over the quotient.

A window holding |L(H)| dependents is decided by _first_embedding, a
cache of at most 4096 entries keyed by (L(H)'s masks, n, the mask of the
window's dependents over the table index).  The key fixes the host lines,
so a cached answer is a fresh search's: None unless their pairwise
intersection sizes are L(H)'s (an embedding keeps them), else _place's
first embedding or None.  An entry takes about 1 KB for whirl3's three
lines, so a full cache about 4 MB.  Each witness's isomorphism is still
completed from its own window, so witnesses are unchanged.  An empty L(H)
(a uniform target) skips the cache: its windows hold no dependents.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from .bits import as_mask, elements_of, r_subsets
from . import errors
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import (
    BadCardinalityError,
    BudgetExceededError,
    DependentContractionSetError,
    MismatchedAmbientError,
    RankDeficientError,
)


@dataclass(frozen=True)
class PavingQuotient:
    """A contraction (and possibly restriction) of a sparse paving matroid.

    groundset is a mask over the original [n]; dependents are the rank-size
    subsets of the ground set that are dependent.  origin records where the
    quotient came from but does not take part in equality.
    """

    groundset: int
    rank: int
    dependents: tuple[int, ...]
    origin: tuple = field(compare=False, repr=False, default=())


def contract(m: SparsePavingMatroid, contract_set) -> PavingQuotient:
    """Quotient by an independent set: non-bases through A survive as C - A."""
    a = as_mask(contract_set, m.n)
    _check_independent(m, a)
    deps = tuple(sorted(c & ~a for c in m.nonbases if c & a == a))
    return PavingQuotient(m.groundset & ~a, m.r - a.bit_count(), deps, origin=(m, a))


def restrict(q: PavingQuotient, keep) -> PavingQuotient:
    """Restrict a quotient to a subset of its ground set, keeping the rank.

    Raises RankDeficientError when no rank-size subset of the kept elements
    is independent (the restriction would not have the quotient's rank).
    """
    e = as_mask(keep)
    if e & ~q.groundset:
        raise MismatchedAmbientError("kept elements are not all in the quotient ground set")
    deps = tuple(d for d in q.dependents if d & e == d)
    size = e.bit_count()
    if size < q.rank or (size == q.rank and deps):
        raise RankDeficientError(
            f"no independent {q.rank}-subset inside {set(elements_of(e))}"
        )
    return PavingQuotient(e, q.rank, deps, origin=q.origin)


# -- sub-structure embeddings -------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An injective element map sending every pattern line onto a host line."""

    element_map: tuple[tuple[int, int], ...]
    line_images: tuple[tuple[int, int], ...]


def _normalize_host(host_lines, r: int) -> list[int]:
    if isinstance(host_lines, LineStructure):
        host_lines = host_lines.masks
    masks = sorted({as_mask(s) for s in host_lines})
    for m in masks:
        if m.bit_count() != r:
            raise BadCardinalityError(
                f"host line {set(elements_of(m))} does not have {r} elements"
            )
    return masks


def _place(pat, order, k, host, fwd, used, taken, images):
    """Place pattern lines order[k:] onto unused host lines, in search order.

    fwd maps the placed pattern elements to host elements, used is the mask
    of their images, taken[i] marks host line i as an image and images
    lists the (pattern line, host line) pairs so far.  A line may go onto a
    host line that holds the images of its placed elements and of no other
    placed element; its free elements are matched in ascending order on
    both sides.  Yields each completed embedding; fwd, taken and images are
    restored when the generator runs out.
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
            yield from _place(pat, order, k + 1, host, fwd, used | hl, taken, images)
        for p in free_pat:
            del fwd[p]
        images.pop()
        taken[hi] = False


def iter_embeddings(host_lines, pattern: LineStructure):
    """Yield all embeddings of the pattern into the host lines, pinned order.

    Pattern lines are placed in decreasing-degree order (degree counts how
    many other pattern lines a line intersects); candidate host lines are
    tried in ascending mask order, and free elements of a line are matched
    in ascending order on both sides.
    """
    host = _normalize_host(host_lines, pattern.r)
    pat = pattern.masks
    if not pat:
        yield Embedding((), ())
        return
    if len(host) < len(pat):
        return
    yield from _place(pat, _placement_order(pat), 0, host, {}, 0, [False] * len(host), [])


def _placement_order(pat) -> tuple[int, ...]:
    """Pattern line indices by decreasing degree, then ascending mask."""
    degree = [sum(1 for q in pat if q is not p and p & q) for p in pat]
    return tuple(sorted(range(len(pat)), key=lambda i: (-degree[i], pat[i])))


def through_orders(pattern: LineStructure) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Placement orders for iter_embeddings_through, one per pattern line.

    Order j starts with line j; each later line is the one meeting the
    lines before it in the most elements (ties to the lower index), so
    lines pinned by shared elements are placed early.  Each order comes
    with its need vector: need[s] counts the other pattern lines that meet
    line j in s elements.
    """
    pat = pattern.masks
    orders = []
    for j in range(len(pat)):
        order = [j]
        seen = pat[j]
        rest = [i for i in range(len(pat)) if i != j]
        while rest:
            nxt = max(rest, key=lambda i: ((pat[i] & seen).bit_count(), -i))
            rest.remove(nxt)
            order.append(nxt)
            seen |= pat[nxt]
        need = [0] * (pattern.r + 1)
        for i in order[1:]:
            need[(pat[i] & pat[j]).bit_count()] += 1
        orders.append((tuple(order), tuple(need)))
    return orders


def iter_embeddings_through(host: list[int], v: int, pattern: LineStructure, orders):
    """Yield the embeddings of the pattern into host + [v] that use v.

    host is a list of r-element masks not containing v, and orders is
    through_orders(pattern).  Each such embedding sends exactly one pattern
    line j onto v, so the search pins line j to v under each bijection of
    their elements and places the other lines into host by order j.  Every
    embedding of host + [v] whose image contains v is yielded exactly once.
    An embedding keeps intersection sizes, so order j is skipped when fewer
    host lines meet v in some size s than other pattern lines meet line j
    in s.
    """
    pat = pattern.masks
    if len(host) + 1 < len(pat):
        return
    v_elems = elements_of(v)
    taken = [False] * len(host)
    meets_v = [0] * (pattern.r + 1)
    for hl in host:
        meets_v[(hl & v).bit_count()] += 1
    for order, need in orders:
        if any(k > have for k, have in zip(need, meets_v)):
            continue
        pl = pat[order[0]]
        pat_elems = elements_of(pl)
        for perm in permutations(v_elems):
            fwd = dict(zip(pat_elems, perm))
            yield from _place(pat, order, 1, host, fwd, v, taken, [(pl, v)])


def contains_line_structure(host_lines, pattern: LineStructure) -> Embedding | None:
    """First embedding of the pattern into the host lines, or None."""
    return next(iter_embeddings(host_lines, pattern), None)


# -- minor search --------------------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """A concrete minor occurrence: contract A, keep E', delete the rest.

    iso maps each element of the target matroid's ground set to the kept
    element realizing it in the quotient.
    """

    contracted: int
    kept: int
    deleted: int
    iso: tuple[tuple[int, int], ...]
    embedding: Embedding


def _complete_iso(h: SparsePavingMatroid, kept: int, emb: Embedding) -> tuple[tuple[int, int], ...]:
    """Extend the embedding's element map to H's elements off every line.

    Those elements go, in ascending order, to the kept elements the
    embedding leaves unused, also in ascending order.
    """
    iso = dict(emb.element_map)
    spare = kept
    for hv in iso.values():
        spare &= ~(1 << (hv - 1))
    off_lines = ~h.structure.support
    for e in range(1, h.n + 1):
        if off_lines >> (e - 1) & 1:
            low = spare & -spare
            spare ^= low
            iso[e] = low.bit_length()
    return tuple(sorted(iso.items()))


def independent_subsets(m: SparsePavingMatroid, size: int):
    """Masks of the independent size-subsets of [n], lexicographic by elements."""
    if size > m.r:
        return
    nb = set(m.nonbases) if size == m.r else ()
    for mask in r_subsets(m.n, size):
        if mask not in nb:
            yield mask


@lru_cache(maxsize=8)
def _subsets(n: int, t: int) -> tuple[int, ...]:
    """The t-subset masks of [n] in ascending order: a window table's index."""
    return tuple(sorted(r_subsets(n, t)))


@lru_cache(maxsize=8)
def _window_table(n: int, t: int, k: int):
    """The k-windows of [n], each with the t-subsets inside it.

    Returns (index, rows): index maps each mask of _subsets(n, t) to its
    position; rows pairs every k-subset e of [n], lexicographic by
    elements, with the mask of the positions of the C(k, t) t-subsets
    inside e.  Nothing here depends
    on the matroid or on A, so a table belongs to a target shape
    (n, r(H), n(H)): C(n, n(H)) rows of C(n, r(H))-bit masks, built in
    C(n, n(H)) * C(n(H), r(H)) steps.  The cache keeps the 8 most recent
    shapes; callers go through _budgeted_table, which bounds each one.
    """
    index = {s: i for i, s in enumerate(_subsets(n, t))}
    rows = []
    for e in r_subsets(n, k):
        bits = [1 << (x - 1) for x in elements_of(e)]
        inside = 0
        for sub in combinations(bits, t):
            inside |= 1 << index[sum(sub)]
        rows.append((e, inside))
    return index, tuple(rows)


def _budgeted_table(n: int, sets: int, t: int, k: int):
    """_window_table(n, t, k) for a search over `sets` contraction sets.

    The search tests each of the C(n, k) windows once per contraction set,
    and the table holds C(n, k) rows of C(n, t) bits, so it costs
    C(n, k) * (sets + C(n, t)).  Raises BudgetExceededError, before any
    table is built, when that exceeds errors.WORK_BUDGET.
    """
    windows, width, budget = comb(n, k), comb(n, t), errors.WORK_BUDGET
    if windows * (sets + width) > budget:
        raise BudgetExceededError(
            f"{windows} windows x ({sets} contraction sets + {width}-bit rows)"
            f" exceed budget {budget}"
        )
    return _window_table(n, t, k)


def _meet_sizes(lines) -> list[int]:
    """Sorted sizes of the pairwise intersections of the lines."""
    return sorted((p & q).bit_count() for i, p in enumerate(lines) for q in lines[i + 1:])


def _check_independent(m: SparsePavingMatroid, a: int) -> None:
    d = a.bit_count()
    if d > m.r:
        raise DependentContractionSetError(
            f"{set(elements_of(a))} has {d} > rank {m.r} elements, so it is dependent"
        )
    if d == m.r and a in m.nonbases:
        raise DependentContractionSetError(
            f"{set(elements_of(a))} is a non-basis of the matroid"
        )


@lru_cache(maxsize=4096)
def _first_embedding(pat: tuple[int, ...], n: int, hit: int) -> Embedding | None:
    """First embedding of the lines pat into the dependents hit marks, or None.

    hit is a mask over _subsets(n, r), r the size of pat's lines; the
    dependents must first have pat's pairwise intersection sizes.
    """
    subsets = _subsets(n, pat[0].bit_count())
    host = []
    while hit:
        low = hit & -hit
        hit ^= low
        host.append(subsets[low.bit_length() - 1])
    if _meet_sizes(host) != _meet_sizes(pat):
        return None
    return next(_place(pat, _placement_order(pat), 0, host, {}, 0, [False] * len(pat), []), None)


def _minor_after(m: SparsePavingMatroid, a: int, h: SparsePavingMatroid,
                 table) -> MinorWitness | None:
    """First n(H)-window of M / A realizing H, or None.

    table is _window_table(m.n, h.r, h.n).  The dependents of M / A are the
    sets C - A of the non-bases C through A; ind marks their positions in
    the table's index.  Skipping the windows that meet A leaves the windows
    of [n] - A in lexicographic order.  A window holding exactly |L(H)|
    dependents goes to _first_embedding, or realizes H at once when L(H)
    is empty.
    """
    index, rows = table
    pat = h.structure.masks
    want = len(pat)
    ind = 0
    for c in m.nonbases:
        if c & a == a:
            ind |= 1 << index[c ^ a]
    if ind.bit_count() < want:
        return None
    for e, inside in rows:
        if e & a:
            continue
        hit = ind & inside
        if hit.bit_count() != want:
            continue
        emb = _first_embedding(pat, m.n, hit) if pat else Embedding((), ())
        if emb is None:
            continue
        return MinorWitness(
            contracted=a,
            kept=e,
            deleted=m.groundset & ~a & ~e,
            iso=_complete_iso(h, e, emb),
            embedding=emb,
        )
    return None


def _first_minor(m: SparsePavingMatroid, h: SparsePavingMatroid, table) -> MinorWitness | None:
    for a in independent_subsets(m, m.r - h.r):
        w = _minor_after(m, a, h, table)
        if w is not None:
            return w
    return None


def has_minor(m: SparsePavingMatroid, h: SparsePavingMatroid) -> MinorWitness | None:
    """Exhaustive, deterministic search for H as a minor of M.

    Tries every independent contraction set of size r(M) - r(H), then every
    n(H)-element subset of the quotient ground set, accepting when the
    dependent sets inside it are isomorphic to the non-bases of H.  Order is
    lexicographic on element tuples; the first witness is returned.
    errors.WORK_BUDGET caps C(n, n(H)) * (C(n, d) + C(n, r(H))) with
    d = r(M) - r(H), the (contraction set, window) pairs plus the window
    table's bits; a larger shape raises BudgetExceededError up front.
    """
    if h.r > m.r or h.n > m.n:
        raise ValueError("target rank and size must not exceed the host's")
    d = m.r - h.r
    if m.n - d < h.n:
        return None
    return _first_minor(m, h, _budgeted_table(m.n, comb(m.n, d), h.r, h.n))


def has_uniform_minor(m: SparsePavingMatroid, t: int, k: int) -> MinorWitness | None:
    """Search for a U_{t,k} minor: a k-set with no dependent t-set after contraction.

    Raises BudgetExceededError where has_minor(m, uniform(t, k)) would.
    """
    if not 0 <= t <= k:
        raise ValueError(f"uniform target needs 0 <= t <= k, got ({t}, {k})")
    d = m.r - t
    if t > m.r or m.n - d < k:
        return None
    table = _budgeted_table(m.n, comb(m.n, d), t, k)
    return _first_minor(m, uniform(t, k), table)


def clean_copy_minor(
    m: SparsePavingMatroid, contract_set, h: SparsePavingMatroid
) -> MinorWitness | None:
    """Find H inside M / A as a clean window: a copy of L(H) and nothing else.

    A must be independent of size r(M) - r(H).  By the equivalence in the
    module docstring this is has_minor's search restricted to this one A,
    budgeted as a search over a single contraction set.
    """
    a = as_mask(contract_set, m.n)
    if h.r > m.r:
        raise ValueError("target rank exceeds the host rank")
    if a.bit_count() != m.r - h.r:
        raise BadCardinalityError(
            f"contraction set must have {m.r - h.r} elements, got {a.bit_count()}"
        )
    _check_independent(m, a)
    table = _budgeted_table(m.n, 1, h.r, h.n)
    return _minor_after(m, a, h, table)


# -- stock matroids -------------------------------------------------------------


def uniform(t: int, k: int) -> SparsePavingMatroid:
    """U_{t,k}: every t-subset of [k] is a basis."""
    if not 0 <= t <= k:
        raise ValueError(f"uniform matroid needs 0 <= t <= k, got ({t}, {k})")
    return make_sparse_paving(k, t, ())


def whirl3() -> SparsePavingMatroid:
    """Rank-3 whirl: relax one triangle of the complete-graph-K4 cycle matroid.

    Ground set [6], non-bases {1,2,4}, {2,3,5}, {1,3,6}: three lines pairwise
    meeting in a single point, with 4, 5, 6 each on exactly one line.
    """
    return make_sparse_paving(6, 3, [{1, 2, 4}, {2, 3, 5}, {1, 3, 6}])


def lift(h: SparsePavingMatroid, d: int) -> SparsePavingMatroid:
    """Append d fresh elements to every non-basis, raising the rank by d."""
    if d < 0:
        raise ValueError("lift amount must be non-negative")
    new = 0
    for i in range(d):
        new |= 1 << (h.n + i)
    lines = [c | new for c in h.nonbases]
    return make_sparse_paving(h.n + d, h.r + d, LineStructure.build(h.r + d, lines))


def disjoint_lines(r: int, count: int) -> SparsePavingMatroid:
    """count pairwise disjoint r-element lines on [r * count]."""
    if r < 2:
        raise ValueError("lines of fewer than 2 elements cannot be pairwise stable")
    if count < 2:
        raise ValueError("need at least two lines; one line on [r] leaves no basis")
    lines = []
    for i in range(count):
        lines.append(set(range(i * r + 1, i * r + r + 1)))
    return make_sparse_paving(r * count, r, lines)


def common_core_lines(r: int, count: int) -> SparsePavingMatroid:
    """count lines sharing a fixed (r-2)-element core, fresh pair each.

    common_core_lines(3, 3) gives {1,2,3}, {1,4,5}, {1,6,7} on [7].
    """
    if r < 2:
        raise ValueError(f"rank must be at least 2, got {r}")
    if count < 2:
        raise ValueError("need at least two lines; one line on [r] leaves no basis")
    core = set(range(1, r - 1))
    lines = []
    for i in range(count):
        a = (r - 2) + 2 * i + 1
        lines.append(core | {a, a + 1})
    return make_sparse_paving(r - 2 + 2 * count, r, lines)
