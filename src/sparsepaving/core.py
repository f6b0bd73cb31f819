"""Core types: adjacency, line structures, and sparse paving matroids.

A sparse paving matroid of rank r on [n] is determined by its set of
non-basis r-subsets, and a family of r-subsets arises this way exactly
when no two members meet in r-1 elements and at least one r-subset is
left over as a basis.  Throughout, subsets are stored as int bitmasks
(element i = bit i-1, see bits.py).
"""
from __future__ import annotations

from math import comb
from typing import NamedTuple

from .bits import (
    MAX_GROUND,
    SubsetLike,
    as_mask,
    elements_of,
    full_mask,
    iter_bits,
    r_subsets,
)
from .errors import BadCardinalityError, NoBasisError, NotStableError


def adjacent(u, v, n: int | None = None) -> bool:
    """True iff two equal-size subsets meet in all but one element.

    This is adjacency in the Johnson graph: |u| = |v| = r and |u & v| = r-1.
    """
    um = as_mask(u, n)
    vm = as_mask(v, n)
    r = um.bit_count()
    if vm.bit_count() != r:
        raise BadCardinalityError("adjacency needs equal-size subsets")
    return (um & vm).bit_count() == r - 1


def is_stable(family, r: int | None = None, n: int | None = None) -> bool:
    """True iff no two distinct members of the family meet in r-1 elements.

    The family must be r-uniform; r is inferred from its least mask when
    not given.  Duplicates are collapsed, and LineStructure.build makes
    the checks: a non-uniform family raises BadCardinalityError there, and
    its NotStableError means False.
    """
    masks = {as_mask(s, n) for s in family}
    if not masks:
        return True
    if r is None:
        r = min(masks).bit_count()
    try:
        LineStructure.build(r, masks)
    except NotStableError:
        return False
    return True


class LineStructure(NamedTuple):
    """A stable family of r-sets: pairwise intersections have at most r-2 elements."""

    r: int
    masks: tuple[int, ...]

    @classmethod
    def from_sets(cls, r: int, lines, n: int | None = None) -> "LineStructure":
        return cls.build(r, {as_mask(s, n) for s in lines})

    @classmethod
    def build(cls, r: int, masks, validate: bool = True) -> "LineStructure":
        masks = tuple(sorted(set(masks)))
        if validate:
            if r < 0:
                raise ValueError("rank must be non-negative")
            for m in masks:
                if m.bit_count() != r:
                    raise BadCardinalityError(
                        f"line {set(elements_of(m))} has {m.bit_count()} elements, expected {r}"
                    )
            for i, a in enumerate(masks):
                for b in masks[i + 1:]:
                    if (a & b).bit_count() == r - 1:
                        raise NotStableError(
                            f"lines {set(elements_of(a))} and {set(elements_of(b))} meet in {r - 1} elements"
                        )
        return cls(r, masks)

    @property
    def lines(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(elements_of(m)) for m in self.masks)

    @property
    def support(self) -> int:
        s = 0
        for m in self.masks:
            s |= m
        return s

    def __repr__(self) -> str:
        shown = [set(elements_of(m)) for m in self.masks]
        return f"LineStructure(r={self.r}, lines={shown})"


class SparsePavingMatroid(NamedTuple):
    """A sparse paving matroid given by its non-basis r-subsets of [n]."""

    n: int
    r: int
    structure: LineStructure

    @property
    def nonbases(self) -> tuple[int, ...]:
        return self.structure.masks

    @property
    def nonbasis_sets(self) -> tuple[frozenset[int], ...]:
        return self.structure.lines

    @property
    def groundset(self) -> int:
        return full_mask(self.n)

    def bases(self):
        """Yield basis masks, lexicographic by elements (not ascending masks)."""
        nb = frozenset(self.structure.masks)
        for m in r_subsets(self.n, self.r):
            if m not in nb:
                yield m

    def rank(self, subset: SubsetLike) -> int:
        """Rank of a subset, from the defining case analysis.

        Sets smaller than r are independent; a set of size r is dependent
        only if it is a non-basis; any larger set contains a basis (two
        r-subsets differing in one element cannot both be non-bases).
        """
        m = as_mask(subset, self.n)
        k = m.bit_count()
        if k < self.r:
            return k
        if k == self.r and m in self.structure.masks:
            return self.r - 1
        return self.r

    def __repr__(self) -> str:
        return f"SparsePavingMatroid(n={self.n}, r={self.r}, nonbases={len(self.structure.masks)})"


def make_sparse_paving(n: int, r: int, nonbases) -> SparsePavingMatroid:
    """Validate and build a sparse paving matroid from its non-basis list.

    Raises NotStableError when two non-bases meet in r-1 elements,
    NoBasisError when every r-subset of [n] is declared a non-basis.
    """
    if not 0 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size {n} outside 0..{MAX_GROUND}")
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} outside 0..{n}")
    structure = (
        nonbases
        if isinstance(nonbases, LineStructure)
        else LineStructure.from_sets(r, nonbases, n)
    )
    if structure.r != r:
        raise BadCardinalityError(f"line structure has rank {structure.r}, expected {r}")
    if structure.support >> n:
        raise ValueError("non-basis uses elements outside the ground set")
    if len(structure.masks) == comb(n, r):
        raise NoBasisError(f"all {comb(n, r)} r-subsets declared non-bases")
    return SparsePavingMatroid(n, r, structure)


def verify_matroid_axioms(bases) -> bool:
    """Basis-exchange oracle: does the family satisfy the basis axioms?

    Checks the family is nonempty, equicardinal, and closed under exchange:
    for all B1, B2 and x in B1-B2 there is y in B2-B1 with B1-x+y a basis.
    Works on any family of int sets (or masks); independent of the sparse
    paving machinery, so it can cross-check constructions.
    """
    masks = sorted({as_mask(b) for b in bases})
    if not masks:
        return False
    r = masks[0].bit_count()
    if any(m.bit_count() != r for m in masks):
        return False
    bset = frozenset(masks)
    ground = 0
    for m in masks:
        ground |= m
    avoiding = {x: [b for b in masks if not b >> x & 1] for x in iter_bits(ground)}
    for b1 in masks:
        outside = tuple(iter_bits(ground & ~b1))
        for x in iter_bits(b1):
            # swaps: the y outside B1 with B1-x+y a basis; every B2 without x needs one
            base = b1 ^ (1 << x)
            swaps = 0
            for y in outside:
                if base | 1 << y in bset:
                    swaps |= 1 << y
            for b2 in avoiding[x]:
                if not b2 & swaps:
                    return False
    return True

