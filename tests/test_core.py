"""Core types: subsets, adjacency, line structures, matroid construction."""
import pytest

import oracles
from helpers import random_r_family, seeded_rng
from sparsepaving import (
    BadCardinalityError,
    LineStructure,
    NoBasisError,
    NotStableError,
    SparsePavingMatroid,
    adjacent,
    elements_of,
    is_stable,
    make_sparse_paving,
    mask_of,
    shadow,
    uniform,
    verify_matroid_axioms,
    whirl3,
)


def test_mask_roundtrip():
    m = mask_of([3, 1, 5], 6)
    assert sorted(elements_of(m)) == [1, 3, 5]
    assert mask_of(elements_of(m)) == m
    with pytest.raises(ValueError):
        mask_of([0], 4)
    with pytest.raises(ValueError):
        mask_of([5], 4)


def test_empty_ground_set_bounds_every_element():
    # n = 0 is the empty ground set, not "no bound"
    with pytest.raises(ValueError):
        mask_of([1], 0)
    with pytest.raises(ValueError):
        is_stable([{1}], 1, 0)
    with pytest.raises(ValueError):
        shadow([{1, 2}], 0)
    assert mask_of([], 0) == 0


def test_rsubset_and_adjacency():
    a, b, c = {1, 2}, {2, 3}, {3, 4}
    assert adjacent(a, b, n=4) and adjacent(b, c, n=4) and not adjacent(a, c, n=4)
    assert not adjacent(a, a, n=4)
    with pytest.raises(BadCardinalityError):
        adjacent({1, 2}, {1, 2, 3}, n=5)
    # int masks are accepted too
    assert adjacent(mask_of(a), mask_of(b), n=4)


def test_adjacent_matches_intersection_rule():
    rng = seeded_rng("core-adj")
    for _ in range(200):
        n = rng.randrange(2, 9)
        r = rng.randrange(1, n)
        u = frozenset(rng.sample(range(1, n + 1), r))
        v = frozenset(rng.sample(range(1, n + 1), r))
        assert adjacent(u, v, n=n) == (len(u & v) == r - 1)


def test_is_stable_against_oracle():
    rng = seeded_rng("core-stable")
    for _ in range(300):
        n = rng.randrange(2, 8)
        r = rng.randrange(1, n)
        fam = random_r_family(rng, n, r, rng.randrange(0, 5))
        sets = [set(elements_of(m)) for m in fam]
        assert is_stable(fam, r, n) == oracles.is_stable_family(sets, r)


def test_line_structure_validation():
    ls = LineStructure.build(2, [mask_of([3, 4]), mask_of([1, 2]), mask_of([1, 2])])
    assert ls.masks == (mask_of([1, 2]), mask_of([3, 4]))  # sorted, deduped
    assert ls.lines == (frozenset({1, 2}), frozenset({3, 4}))
    assert ls.support == mask_of([1, 2, 3, 4])
    with pytest.raises(BadCardinalityError):
        LineStructure.build(2, [mask_of([1, 2, 3])])
    with pytest.raises(NotStableError):
        LineStructure.build(2, [mask_of([1, 2]), mask_of([2, 3])])


def test_make_sparse_paving_validation():
    m = make_sparse_paving(4, 2, [{1, 2}, {3, 4}])
    assert m.n == 4 and m.r == 2
    assert m.nonbasis_sets == (frozenset({1, 2}), frozenset({3, 4}))
    with pytest.raises(ValueError):
        make_sparse_paving(4, 5, [])
    with pytest.raises(NotStableError):
        make_sparse_paving(4, 2, [{1, 2}, {2, 3}])
    with pytest.raises(NoBasisError):
        make_sparse_paving(1, 1, [{1}])


def test_rank_closed_form_against_bases():
    rng = seeded_rng("core-rank")
    corpus = [whirl3(), uniform(2, 4), make_sparse_paving(5, 2, [{1, 2}, {3, 4}])]
    for m in corpus:
        gm = oracles.GeneralMatroid.from_sparse_paving(m)
        for _ in range(200):
            k = rng.randrange(0, m.n + 1)
            x = frozenset(rng.sample(range(1, m.n + 1), k))
            assert m.rank(x) == gm.rank(x)


def test_bases_match_oracle():
    m = whirl3()
    got = {frozenset(elements_of(b)) for b in m.bases()}
    assert got == set(oracles.bases_of(m.n, m.r, m.nonbasis_sets))
    # lexicographic by elements, not ascending masks
    assert list(uniform(2, 4).bases()) == [3, 5, 9, 6, 10, 12]
    assert m.is_basis({1, 2, 5}) and not m.is_basis({1, 2, 4})


def test_verify_matroid_axioms():
    for m in (whirl3(), uniform(2, 4), make_sparse_paving(7, 3, [{1, 2, 3}])):
        bases = list(m.bases())
        assert verify_matroid_axioms([set(elements_of(b)) for b in bases])
    # exchange fails: {1,2} and {3,4} cannot trade elements
    assert not verify_matroid_axioms([{1, 2}, {3, 4}])
    assert not verify_matroid_axioms([])
    assert not verify_matroid_axioms([{1, 2}, {1, 2, 3}])


def test_verify_axioms_agrees_with_set_oracle():
    rng = seeded_rng("core-axioms")
    for _ in range(60):
        n = rng.randrange(2, 6)
        r = rng.randrange(1, n + 1)
        fam = random_r_family(rng, n, r, rng.randrange(1, 6))
        sets = [set(elements_of(m)) for m in fam]
        assert verify_matroid_axioms(sets) == oracles.exchange_ok(sets)


def test_general_matroid_from_bases():
    gm = oracles.GeneralMatroid.from_bases(3, [{1, 2}, {2, 3}])
    assert gm.rank({1, 3}) == 1 or gm.rank({1, 3}) == 2  # {1,3} meets both in 1
    assert gm.rank({1, 3}) == max(len({1, 3} & b) for b in ({1, 2}, {2, 3}))
    assert gm.is_independent({2}) and not gm.is_independent({1, 3})
    with pytest.raises(ValueError):
        oracles.GeneralMatroid.from_bases(4, [{1, 2}, {3, 4}])  # fails exchange


def test_sparse_paving_repr_and_groundset():
    m = make_sparse_paving(4, 2, [{1, 2}])
    assert m.groundset == mask_of([1, 2, 3, 4])
    assert "n=4" in repr(m)
