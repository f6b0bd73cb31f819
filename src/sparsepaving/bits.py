"""Bitmask helpers for subsets of a 1-indexed ground set.

Element i of the ground set [n] is bit i-1 of a plain int.  Masks are
arbitrary-precision, but public constructors enforce MAX_GROUND so that
nonsense inputs fail fast.
"""
from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations
from typing import Union

MAX_GROUND = 512  # widest ground set any constructor accepts

SubsetLike = Union[int, Iterable[int]]


def mask_of(elements: Iterable[int], n: int | None = None) -> int:
    """Pack 1-indexed elements into a mask, validating the range."""
    top = MAX_GROUND if n is None else n
    mask = 0
    for e in elements:
        if not isinstance(e, int) or e < 1 or e > top:
            raise ValueError(f"element {e!r} outside 1..{top}")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """Unpack a mask into its sorted 1-indexed elements."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length())
    return tuple(out)


def iter_bits(mask: int):
    """Yield the 0-indexed bit positions set in mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def r_subsets(n: int, r: int):
    """Yield the masks of the r-subsets of [n], lexicographic by elements."""
    for combo in combinations(range(n), r):
        mask = 0
        for c in combo:
            mask |= 1 << c
        yield mask


def ascending_subsets(n: int, r: int) -> tuple[int, ...]:
    """The r-subset masks of [n] in ascending order.

    This is the one index over r-subsets: the vertices of J(n, r), the bits
    of a minor search's window table and the bits of a pattern copy.
    """
    return tuple(sorted(r_subsets(n, r)))


def full_mask(n: int) -> int:
    return (1 << n) - 1


def as_mask(subset: SubsetLike, n: int | None = None) -> int:
    """Normalize an int mask or an iterable of 1-indexed elements to a mask."""
    if isinstance(subset, int):
        if subset < 0:
            raise ValueError("negative mask")
        if n is not None and subset >> n:
            raise ValueError(f"mask {subset:#x} has bits outside 1..{n}")
        return subset
    return mask_of(subset, n)
