"""Internal structure of a non-basis family: loose elements, forts, and moats.

A fort is a set X (of at least r-1 elements) in which every (r-1)-subset
extends to a non-basis using an element outside X.  A moat is a set X no
non-basis meets in exactly r-1 elements; non-bases are then either fully
inside or well clear of X, so the interior can be studied, and even
replaced, independently of the rest of the matroid.

find_disjoint_good_moats is exact or refused under errors.WORK_BUDGET:
it scans every window and packs the good ones exhaustively, or raises
BudgetExceededError once that work would pass the budget.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from . import errors
from .bits import as_mask, elements_of, r_subsets
from .core import LineStructure, SparsePavingMatroid, make_sparse_paving
from .errors import BudgetExceededError, NotAFortError
from .minors import contains_line_structure

EXHAUSTIVE_COLOR_CAP = 20  # sizes up to this get a plain exhaustive subset search


def loose_elements(m: SparsePavingMatroid) -> dict[int, int]:
    """Map each non-basis mask to the mask of its elements on no other non-basis."""
    out = {}
    for c in m.nonbases:
        covered = 0
        for d in m.nonbases:
            if d != c:
                covered |= d
        out[c] = c & ~covered
    return out


def tied_nonbases(m: SparsePavingMatroid) -> tuple[int, ...]:
    """Non-bases every element of which also lies on another non-basis."""
    loose = loose_elements(m)
    return tuple(c for c in m.nonbases if loose[c] == 0)


def _fort_cover(m: SparsePavingMatroid, x: int) -> set[int]:
    """(r-1)-subsets of x that extend to a non-basis via one outside element."""
    covered = set()
    for c in m.nonbases:
        inside = c & x
        if inside.bit_count() == m.r - 1:
            covered.add(inside)
    return covered


def is_fort(m: SparsePavingMatroid, subset) -> bool:
    """Does every (r-1)-subset of the set reach a non-basis through the outside?"""
    if m.r < 1:
        raise ValueError("forts need rank at least 1")
    x = as_mask(subset, m.n)
    k = x.bit_count()
    if k < m.r - 1:
        raise ValueError(f"a fort needs at least {m.r - 1} elements, got {k}")
    return len(_fort_cover(m, x)) == comb(k, m.r - 1)


def is_moat(m: SparsePavingMatroid, subset) -> bool:
    """True iff no non-basis meets the set in exactly r-1 elements."""
    x = as_mask(subset, m.n)
    return all((c & x).bit_count() != m.r - 1 for c in m.nonbases)


def moat_interior(m: SparsePavingMatroid, subset) -> tuple[int, ...]:
    x = as_mask(subset, m.n)
    return tuple(c for c in m.nonbases if c & x == c)


def classify_moat(
    m: SparsePavingMatroid, subset, target: SparsePavingMatroid | None = None
) -> str:
    """Classify a candidate moat: 'not_moat', 'empty', 'h_good', or 'other'.

    'empty' means no non-basis lies inside (such a moat is good for every
    target).  'h_good' means the interior non-bases embed into the target's
    line structure; it needs a target of the same rank.
    """
    x = as_mask(subset, m.n)
    if not is_moat(m, x):
        return "not_moat"
    interior = moat_interior(m, x)
    if not interior:
        return "empty"
    if target is not None and target.r == m.r:
        pattern = LineStructure.build(m.r, interior, validate=False)
        if contains_line_structure(target.nonbases, pattern) is not None:
            return "h_good"
    return "other"


def is_good_moat(m: SparsePavingMatroid, subset, target: SparsePavingMatroid) -> bool:
    return classify_moat(m, subset, target) in ("empty", "h_good")


def find_disjoint_good_moats(
    m: SparsePavingMatroid,
    target: SparsePavingMatroid,
    size: int,
    want: int,
) -> list[int]:
    """Up to `want` pairwise disjoint good moats of the given size, as masks.

    Every window (size-subset of [n]) is classified, in r_subsets order,
    and a backtracking pass picks the first disjoint family of `want` good
    ones.  Fewer than `want` come back only when no such family exists.
    One window, or one disjointness test of the packing, is one unit of
    errors.WORK_BUDGET: more windows than the budget are refused before
    any is classified, and a packing that would pass the budget raises
    BudgetExceededError.
    """
    if size < 1 or size > m.n:
        raise ValueError(f"window size {size} outside 1..{m.n}")
    if want < 1:
        raise ValueError("want must be positive")
    budget = errors.WORK_BUDGET
    work = comb(m.n, size)
    if work > budget:
        raise BudgetExceededError(f"{work} windows of size {size} exceed budget {budget}")
    good = [x for x in r_subsets(m.n, size) if is_good_moat(m, x, target)]
    best: list[int] = []

    def pick(i: int, chosen: list[int], used: int) -> bool:
        nonlocal best, work
        if len(chosen) > len(best):
            best = list(chosen)
        if len(best) >= want:
            return True
        if len(chosen) + (len(good) - i) <= len(best):
            return False
        for j in range(i, len(good)):
            work += 1
            if work > budget:
                raise BudgetExceededError(
                    f"packing {len(good)} good moats needs more than {budget} steps"
                )
            if good[j] & used:
                continue
            chosen.append(good[j])
            if pick(j + 1, chosen, used | good[j]):
                return True
            chosen.pop()
        return False

    pick(0, [], 0)
    return best


# -- polychromatic subsets -----------------------------------------------------


def is_valid_coloring(elements, coloring, r: int) -> bool:
    """Valid means r-subsets meeting in r-1 elements get different colors."""
    xs = sorted(set(elements))
    lookup = _color_lookup(coloring)
    edges = [frozenset(s) for s in combinations(xs, r)]
    for i, a in enumerate(edges):
        ca = lookup(a)
        for b in edges[i + 1:]:
            if len(a & b) == r - 1 and ca == lookup(b):
                return False
    return True


def _color_lookup(coloring):
    if callable(coloring):
        return coloring
    return lambda s: coloring[s]


def _all_distinct(xs, lookup, r: int) -> bool:
    seen = set()
    for s in combinations(xs, r):
        c = lookup(frozenset(s))
        if c in seen:
            return False
        seen.add(c)
    return True


def _injective_core(xs, lookup, r: int) -> list:
    """Greedy subset of xs on which all r-subsets receive distinct colors."""
    keep: list = []
    seen: set = set()
    for y in xs:
        fresh = [lookup(frozenset(s) | {y}) for s in combinations(keep, r - 1)]
        if len(set(fresh)) == len(fresh) and not seen.intersection(fresh):
            keep.append(y)
            seen.update(fresh)
    return keep


def polychromatic_subset(elements, coloring, r: int, m: int):
    """An m-subset on which all r-subsets receive pairwise distinct colors.

    The coloring must be valid (r-subsets meeting in r-1 elements already
    differ).  Small ground sets are searched exhaustively.  Larger ones run
    the constructive argument: repeatedly fix the smallest element x and
    shrink the pool to a color-injective neighborhood of x at rank r-1, so
    that any two surviving r-subsets sharing an element differ in color;
    then extract an (m-1)-subset recursively and extend it by one element
    whose new r-subsets avoid all existing colors.  Every result is checked
    before it is returned; None means the construction ran out of room.
    "Small" is up to EXHAUSTIVE_COLOR_CAP elements, read at call time.
    The chain step inherits the argument's pessimism: colorings with heavy
    color reuse across disjoint subsets (sums, say) can defeat it at any
    ground set size a machine can hold, even when a witness exists.
    """
    if r < 1:
        raise ValueError("rank must be at least 1")
    if m < r:
        raise ValueError(f"target size {m} below rank {r}")
    xs = sorted(set(elements))
    lookup = _color_lookup(coloring)
    if len(xs) < m:
        return None
    if r == 1:
        # validity forces distinct colors on singletons; any m elements work
        return tuple(xs[:m])
    if m == r:
        return tuple(xs[:r])
    if len(xs) <= EXHAUSTIVE_COLOR_CAP:
        for combo in combinations(xs, m):
            if _all_distinct(combo, lookup, r):
                return combo
        return None

    # stage 1: chain of fixed elements with intersecting r-subsets all distinct
    chain: list = []
    by_color: dict = {}

    def chain_accepts(y) -> bool:
        news = []
        for s in combinations(chain, r - 1):
            a = frozenset(s) | {y}
            c = lookup(a)
            for b in by_color.get(c, ()):
                if a & b:
                    return False
            news.append((c, a))
        fresh = {}
        for c, a in news:
            for b in fresh.get(c, ()):
                if a & b:
                    return False
            fresh.setdefault(c, []).append(a)
        for c, a in news:
            by_color.setdefault(c, []).append(a)
        return True

    pool = xs
    while pool:
        x = pool[0]
        rest = pool[1:]
        if not chain_accepts(x):
            pool = rest
            continue
        chain.append(x)
        induced = lambda s, _x=x: lookup(frozenset(s) | {_x})
        pool = _injective_core(rest, induced, r - 1)

    if len(chain) < m:
        return None

    # stage 2: recursive (m-1)-subset, then the one-element extension
    sub = polychromatic_subset(chain, coloring, r, m - 1)
    if sub is None:
        return None
    base = sorted(sub)
    base_colors = {lookup(frozenset(s)) for s in combinations(base, r)}
    for e in chain:
        if e in sub:
            continue
        added = [lookup(frozenset(s) | {e}) for s in combinations(base, r - 1)]
        if len(set(added)) != len(added) or set(added) & base_colors:
            continue
        out = tuple(sorted(base + [e]))
        if _all_distinct(out, lookup, r):
            return out
    return None


def fort_refine(m: SparsePavingMatroid, fort, size: int):
    """Shrink a fort so that distinct (r-1)-subsets pair with distinct outside elements.

    Each (r-1)-subset of the fort is colored by the smallest outside element
    completing it to a non-basis; two such subsets meeting in r-2 elements
    cannot share a pairing element (the completed non-bases would meet in
    r-1 elements), so the coloring is valid and polychromatic_subset applies
    at rank r-1.  Returns the refined tuple of elements, or None.
    """
    x = as_mask(fort, m.n)
    if not is_fort(m, x):
        raise NotAFortError(f"{set(elements_of(x))} is not a fort")
    pairing: dict[frozenset[int], int] = {}
    for c in m.nonbases:
        inside = c & x
        if inside.bit_count() == m.r - 1 and (c & ~x).bit_count() == 1:
            key = frozenset(elements_of(inside))
            e = (c & ~x).bit_length()
            if key not in pairing or e < pairing[key]:
                pairing[key] = e
    return polychromatic_subset(elements_of(x), pairing, m.r - 1, size)


def replace_moat_interior(
    m: SparsePavingMatroid, moat, interior_lines
) -> SparsePavingMatroid:
    """Swap the non-bases inside a moat for another stable family in it.

    Outside non-bases meet the moat in at most r-2 elements, so they cannot
    clash with any r-subset of the moat; stability of the result only needs
    the new interior to be stable on its own.
    """
    x = as_mask(moat, m.n)
    if not is_moat(m, x):
        raise ValueError(f"{set(elements_of(x))} is not a moat")
    outside = [c for c in m.nonbases if c & x != c]
    new = [as_mask(s, m.n) for s in interior_lines]
    for c in new:
        if c & x != c:
            raise ValueError(f"replacement line {set(elements_of(c))} leaves the moat")
    return make_sparse_paving(m.n, m.r, outside + new)
