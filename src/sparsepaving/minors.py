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
r(H)-subsets of [n] inside it over bits.ascending_subsets, the one
r-subset index.  A table is built once per shape (n, r(H), n(H)) and kept
in a small cache.  Its bits count against errors.WORK_BUDGET with the
(A, window) pairs, so an oversized search raises BudgetExceededError
before anything is built.  Per A, the dependents of M / A are marked in
one mask over the same index; ANDed with a window's row it gives the
dependents inside the window.  Dropping the windows that meet A leaves
the windows of [n] - A in their lexicographic order, the order of a
direct walk over the quotient.

A window realizes H when it holds exactly |L(H)| dependents and some
injection of the support of L(H) sends L(H) onto them, which is what
_place searches for; the first embedding it yields is both the answer and
the witness.  An empty L(H) has the empty embedding in every window.
Twins, elements on exactly the same lines of L(H), can swap images in
any embedding, so _place gives them ascending images only; sorting a
class's images keeps every line image and comes no later in the search
order, so the first embedding is the same.  That leaves one order per host
line for a line of disjoint_lines and C(r, 2) for the first line of
common_core_lines, but lines split into many small classes can still take
many, so each placement is one more step of errors.WORK_BUDGET.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb, inf
from typing import NamedTuple

from .bits import as_mask, ascending_subsets, elements_of, r_subsets
from . import errors
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import (
    BadCardinalityError,
    BudgetExceededError,
    DependentContractionSetError,
    MismatchedAmbientError,
    RankDeficientError,
)


class PavingQuotient(NamedTuple):
    """A contraction (and possibly restriction) of a sparse paving matroid.

    groundset is a mask over the original [n]; dependents are the rank-size
    subsets of the ground set that are dependent.
    """

    groundset: int
    rank: int
    dependents: tuple[int, ...]


def contract(m: SparsePavingMatroid, contract_set) -> PavingQuotient:
    """Quotient by an independent set: non-bases through A survive as C - A."""
    a = as_mask(contract_set, m.n)
    _check_independent(m, a)
    deps = tuple(sorted(c & ~a for c in m.nonbases if c & a == a))
    return PavingQuotient(m.groundset & ~a, m.r - a.bit_count(), deps)


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
    return PavingQuotient(e, q.rank, deps)


# -- sub-structure embeddings -------------------------------------------------


class Embedding(NamedTuple):
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


def _place(order, k, host, fwd, used, taken, images, left):
    """Place pattern lines order[k:] onto unused host lines, in search order.

    order is _placement_order's.  fwd maps the placed pattern elements to
    host elements, used is the mask of their images, taken[i] marks host
    line i as an image and images lists the (pattern line, host line) pairs
    so far.  A line may go onto a host line that holds the images of its
    placed elements and of no other placed element.  Its free elements take
    the host line's free ones in each order, lexicographically, twins in
    ascending order only.  Each call is one step, taken from left[0]; past
    zero it raises BudgetExceededError.  Yields each completed embedding;
    fwd, taken and images are restored when it runs out.
    """
    left[0] -= 1
    if left[0] < 0:
        raise BudgetExceededError("placing the pattern lines passes the work budget")
    if k == len(order):
        yield Embedding(tuple(sorted(fwd.items())), tuple(sorted(images)))
        return
    pl, placed, free_pat, after = order[k]
    img_mask = 0
    for p in placed:
        img_mask |= 1 << (fwd[p] - 1)
    for hi, hl in enumerate(host):
        if taken[hi]:
            continue
        if img_mask & ~hl:
            continue  # a mapped element of this line lands outside hl
        if used & hl & ~img_mask:
            continue  # hl holds the image of an element not on this line
        free_host = elements_of(hl & ~img_mask)
        taken[hi] = True
        images.append((pl, hl))
        orders = permutations(free_host) if after is None else _ascending(free_host, after, ())
        for perm in orders:
            fwd.update(zip(free_pat, perm))
            yield from _place(order, k + 1, host, fwd, used | hl, taken, images, left)
        for p in free_pat:
            del fwd[p]
        images.pop()
        taken[hi] = False


def _ascending(free, after, chosen):
    """The orders of free after chosen, lexicographically, with chosen[j] > chosen[after[j]].

    after[j] is the position of entry j's previous twin, or -1.
    """
    if not free:
        yield chosen
        return
    j = len(chosen)
    low = chosen[after[j]] if after[j] >= 0 else 0
    for i, x in enumerate(free):
        if x > low:
            yield from _ascending(free[:i] + free[i + 1:], after, chosen + (x,))


def iter_embeddings(host_lines, pattern: LineStructure):
    """Yield the embeddings of the pattern into the host lines, pinned order.

    Pattern lines are placed in decreasing-degree order (degree counts how
    many other pattern lines a line intersects); candidate host lines are
    tried in ascending mask order.  Twins map in ascending order, so one
    embedding stands for prod (twin class size)! of a search over every
    order, with the same first embedding and line images.  Not budgeted.
    """
    host = _normalize_host(host_lines, pattern.r)
    pat = pattern.masks
    if not pat:
        yield Embedding((), ())
        return
    if len(host) < len(pat):
        return
    yield from _place(_placement_order(pat), 0, host, {}, 0, [False] * len(host), [], [inf])


def _placement_order(pat) -> tuple:
    """(line, placed, free, after) per pattern line, by decreasing degree, then ascending mask.

    placed lists the line's elements on earlier lines and free the rest,
    ascending.  after[j] is the position in free of free[j]'s previous twin,
    or -1, and None when free holds no twins; _place then walks
    itertools.permutations, since _ascending on every line ran the
    every-representative ex_density sweeps of J(9, 6) and J(9, 3) about
    40% and 30% slower (BENCH_minor_place.json).  Twins are first met on
    one line, so each class lies in one free list.
    """
    degree = {p: sum(1 for q in pat if q is not p and p & q) for p in pat}
    out, seen = [], 0
    for p in sorted(pat, key=lambda p: (-degree[p], p)):
        free, last, after = elements_of(p & ~seen), {}, []
        for j, e in enumerate(free):
            on = tuple(q >> (e - 1) & 1 for q in pat)
            after.append(last.get(on, -1))
            last[on] = j
        out.append((p, elements_of(p & seen), free, tuple(after) if len(last) < len(free) else None))
        seen |= p
    return tuple(out)


def contains_line_structure(host_lines, pattern: LineStructure) -> Embedding | None:
    """First embedding of the pattern into the host lines, or None."""
    return next(iter_embeddings(host_lines, pattern), None)


# -- minor search --------------------------------------------------------------


class MinorWitness(NamedTuple):
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
    if size == m.r:
        return m.bases()
    return r_subsets(m.n, size) if size < m.r else iter(())


@lru_cache(maxsize=8)
def _window_table(n: int, t: int, k: int):
    """The k-windows of [n], each with the t-subsets inside it.

    Returns (index, rows): index maps each mask of ascending_subsets(n, t)
    to its position; rows pairs every k-subset e of [n], lexicographic by
    elements, with the mask of the positions of the C(k, t) t-subsets
    inside e.  Nothing here depends on the matroid or on A, so a table
    belongs to a target shape (n, r(H), n(H)): C(n, n(H)) rows of
    C(n, r(H))-bit masks, each set bit by bit in a bytearray and read as
    one int.  The cache keeps the 8 most recent shapes; callers go through
    _budgeted_search, which bounds each one.
    """
    index = {s: i for i, s in enumerate(ascending_subsets(n, t))}
    rows = []
    for e in r_subsets(n, k):
        bits = [1 << (x - 1) for x in elements_of(e)]
        inside = bytearray(len(index) + 7 >> 3)
        for sub in combinations(bits, t):
            i = index[sum(sub)]
            inside[i >> 3] |= 1 << (i & 7)
        rows.append((e, int.from_bytes(inside, "little")))
    return index, tuple(rows)


def _budgeted_search(n: int, sets: int, h: SparsePavingMatroid):
    """_window_table(n, r(H), n(H)) for a search over `sets` contraction sets.

    The search tests C(n, n(H)) windows per contraction set and the table
    has as many rows of C(n, r(H)) bits, so the search costs
    C(n, n(H)) * (sets + C(n, r(H))) before any placement.  Past
    errors.WORK_BUDGET it raises BudgetExceededError, building nothing;
    else it returns the table and [steps left], which _place spends.
    """
    windows, width, budget = comb(n, h.n), comb(n, h.r), errors.WORK_BUDGET
    left = budget - windows * (sets + width)
    if left < 0:
        raise BudgetExceededError(
            f"{windows} windows x ({sets} contraction sets + {width}-bit rows)"
            f" exceed budget {budget}"
        )
    return _window_table(n, h.r, h.n), [left]


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


def _minor_after(m: SparsePavingMatroid, a: int, h: SparsePavingMatroid,
                 table, left, order) -> MinorWitness | None:
    """First n(H)-window of M / A realizing H, or None.

    table and left are _budgeted_search's for m.n and H, and order is
    _placement_order(L(H)).  The dependents of M / A are the sets C - A of
    the non-bases C through A; ind marks their positions in the table's
    index.  Skipping the windows that meet A leaves the windows of [n] - A
    in lexicographic order.  A window realizes H when it holds exactly
    |L(H)| dependents and L(H) embeds into them; the first embedding _place
    yields is the witness's.
    """
    index, rows = table
    want = len(order)
    ind = 0
    for c in m.nonbases:
        if c & a == a:
            ind |= 1 << index[c ^ a]
    if ind.bit_count() < want:
        return None
    for e, inside in rows:
        if e & a or (ind & inside).bit_count() != want:
            continue
        host = [c ^ a for c in m.nonbases if c & a == a and not c & ~a & ~e]
        emb = next(_place(order, 0, host, {}, 0, [False] * want, [], left), None)
        if emb is not None:
            return MinorWitness(a, e, m.groundset & ~a & ~e, _complete_iso(h, e, emb), emb)
    return None


def has_minor(m: SparsePavingMatroid, h: SparsePavingMatroid) -> MinorWitness | None:
    """Exhaustive, deterministic search for H as a minor of M.

    Tries every independent contraction set of size r(M) - r(H), then every
    n(H)-element subset of the quotient ground set, accepting when the
    dependent sets inside it are isomorphic to the non-bases of H.  Order is
    lexicographic on element tuples; the first witness is returned.
    errors.WORK_BUDGET caps C(n, n(H)) * (C(n, d) + C(n, r(H))), with
    d = r(M) - r(H): the (contraction set, window) pairs and the window
    table's bits (see _budgeted_search), then one step per placement of
    the embedding search; a larger search raises BudgetExceededError.
    """
    if h.r > m.r or h.n > m.n:
        raise ValueError("target rank and size must not exceed the host's")
    d = m.r - h.r
    if m.n - d < h.n:
        return None
    table, left = _budgeted_search(m.n, comb(m.n, d), h)
    order = _placement_order(h.structure.masks)
    hits = (_minor_after(m, a, h, table, left, order) for a in independent_subsets(m, d))
    return next((w for w in hits if w is not None), None)


def has_uniform_minor(m: SparsePavingMatroid, t: int, k: int) -> MinorWitness | None:
    """Search for a U_{t,k} minor: a k-set with no dependent t-set after contraction.

    has_minor(m, uniform(t, k)), or None where has_minor would refuse
    U_{t,k} as larger than M (t > r(M) or k > n(M)).
    """
    if not 0 <= t <= k:
        raise ValueError(f"uniform target needs 0 <= t <= k, got ({t}, {k})")
    if t > m.r or k > m.n:
        return None
    return has_minor(m, uniform(t, k))


def clean_copy_minor(
    m: SparsePavingMatroid, contract_set, h: SparsePavingMatroid
) -> MinorWitness | None:
    """Find H inside M / A as a clean window: a copy of L(H) and nothing else.

    A must be independent of size r(M) - r(H).  By the equivalence in the
    module docstring this is has_minor's search restricted to this one A,
    budgeted as a search over a single contraction set and its placements.
    """
    a = as_mask(contract_set, m.n)
    if h.r > m.r:
        raise ValueError("target rank exceeds the host rank")
    if a.bit_count() != m.r - h.r:
        raise BadCardinalityError(
            f"contraction set must have {m.r - h.r} elements, got {a.bit_count()}"
        )
    _check_independent(m, a)
    table, left = _budgeted_search(m.n, 1, h)
    return _minor_after(m, a, h, table, left, _placement_order(h.structure.masks))


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
    new = ((1 << d) - 1) << h.n
    lines = [c | new for c in h.nonbases]
    return make_sparse_paving(h.n + d, h.r + d, LineStructure.build(h.r + d, lines))


def disjoint_lines(r: int, count: int) -> SparsePavingMatroid:
    """count pairwise disjoint r-element lines on [r * count]."""
    if r < 2:
        raise ValueError("lines of fewer than 2 elements cannot be pairwise stable")
    if count < 2:
        raise ValueError("need at least two lines; one line on [r] leaves no basis")
    lines = [set(range(i * r + 1, i * r + r + 1)) for i in range(count)]
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
