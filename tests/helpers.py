"""Seeded construction helpers shared across test modules."""
import os
import random
from itertools import combinations

import sparsepaving
from sparsepaving import derive_seed, mask_of


def cli_env() -> dict:
    """os.environ with PYTHONPATH led by the directory this package came from.

    A CLI subprocess then imports the same sparsepaving as the tests,
    whether the package came from PYTHONPATH, pytest's pythonpath setting
    or an install.
    """
    src = os.path.dirname(os.path.dirname(sparsepaving.__file__))
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}


def seeded_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def greedy_valid_coloring(elements, r, seed):
    """A valid coloring (adjacent r-sets differ) with a shuffled palette.

    Greedy over r-subsets in lexicographic order; each subset takes the
    first palette color not used by an already-colored subset meeting it
    in r-1 elements.  Shuffling the palette per seed varies the palette
    richness without breaking validity.
    """
    rng = random.Random(seed)
    xs = sorted(set(elements))
    palette = list(range(4 * len(xs)))
    rng.shuffle(palette)
    cols = {}
    for s in combinations(xs, r):
        fs = frozenset(s)
        banned = {c for o, c in cols.items() if len(fs & o) == r - 1}
        for c in palette:
            if c not in banned:
                cols[fs] = c
                break
    return cols


def random_r_family(rng, n, r, k):
    """k distinct r-subsets of [n] as masks (any family, not always stable)."""
    from math import comb

    k = min(k, comb(n, r))
    seen = set()
    while len(seen) < k:
        seen.add(mask_of(rng.sample(range(1, n + 1), r)))
    return sorted(seen)
