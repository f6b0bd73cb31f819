"""Loose/tied elements, forts, moats, and polychromatic refinement."""
import time
from itertools import combinations

import pytest

from helpers import greedy_valid_coloring, seeded_rng
from sparsepaving import (
    BudgetExceededError,
    NotAFortError,
    NotStableError,
    classify_moat,
    derive_seed,
    disjoint_lines,
    elements_of,
    fano_triples,
    find_disjoint_good_moats,
    fort_refine,
    is_fort,
    is_moat,
    is_valid_coloring,
    johnson_graph,
    lift,
    loose_elements,
    make_sparse_paving,
    mask_of,
    moat_interior,
    polychromatic_subset,
    replace_moat_interior,
    tied_nonbases,
    uniform,
    whirl3,
)
from sparsepaving import errors, structures

FANO = make_sparse_paving(7, 3, fano_triples())
SINGLE42 = make_sparse_paving(4, 2, [{1, 2}])


def as_sets(masks):
    return {frozenset(elements_of(m)) for m in masks}


def test_loose_elements():
    m = make_sparse_paving(6, 3, [{1, 2, 3}, {3, 4, 5}])
    got = {frozenset(elements_of(k)): set(elements_of(v)) for k, v in loose_elements(m).items()}
    assert got == {frozenset({1, 2, 3}): {1, 2}, frozenset({3, 4, 5}): {4, 5}}
    w = loose_elements(whirl3())
    assert {frozenset(elements_of(k)): set(elements_of(v)) for k, v in w.items()} == {
        frozenset({1, 2, 4}): {4},
        frozenset({2, 3, 5}): {5},
        frozenset({1, 3, 6}): {6},
    }
    assert set(loose_elements(SINGLE42).values()) == {mask_of([1, 2])}
    assert set(loose_elements(FANO).values()) == {0}


def test_tied_nonbases():
    assert tied_nonbases(whirl3()) == ()
    assert tied_nonbases(disjoint_lines(3, 2)) == ()
    assert tied_nonbases(make_sparse_paving(5, 2, ())) == ()
    # every fano point lies on three lines, so every line is tied
    assert tied_nonbases(FANO) == FANO.nonbases


def test_lift_preserves_untied():
    corpus = [SINGLE42, whirl3(), disjoint_lines(2, 2), make_sparse_paving(5, 3, [{1, 2, 3}, {1, 4, 5}])]
    for h in corpus:
        assert tied_nonbases(h) == ()
        for d in (1, 2):
            assert tied_nonbases(lift(h, d)) == ()
    # contrast: lifting keeps tied lines tied
    assert len(tied_nonbases(lift(FANO, 1))) == 7


def test_is_fort():
    m = make_sparse_paving(4, 2, [{1, 3}, {2, 4}])
    assert is_fort(m, {1, 2})
    assert not is_fort(m, {1, 3})
    assert is_fort(m, {1})  # single (r-1)-subset with an external completion
    assert not is_fort(SINGLE42, {3})  # element on no line has no completion
    with pytest.raises(ValueError):
        is_fort(m, set())  # below r-1 elements
    with pytest.raises(ValueError):
        is_fort(make_sparse_paving(3, 0, ()), {1})


def test_fano_forts_are_cap_sets():
    # X is a fort iff no pair of X has its third collinear point inside X
    third = {}
    for line in fano_triples().lines:
        for pair in combinations(sorted(line), 2):
            third[frozenset(pair)] = (set(line) - set(pair)).pop()
    for size in (2, 3, 4):
        for xs in combinations(range(1, 8), size):
            expect = all(third[frozenset(p)] not in xs for p in combinations(xs, 2))
            assert is_fort(FANO, set(xs)) == expect, xs
    assert is_fort(FANO, {4, 5, 6, 7})
    assert not is_fort(FANO, {1, 2, 3})


def test_moat_classification():
    m = SINGLE42
    assert classify_moat(m, {3, 4}) == "empty"
    assert is_moat(m, {3, 4}) and moat_interior(m, {3, 4}) == ()
    assert classify_moat(m, {1, 3}) == "not_moat"
    assert classify_moat(m, {1, 2, 3}, SINGLE42) == "h_good"
    assert classify_moat(m, {1, 2, 3}, uniform(2, 4)) == "other"  # no line to embed into
    assert classify_moat(m, {1, 2, 3}, whirl3()) == "other"  # rank mismatch
    assert classify_moat(m, {1, 2, 3}) == "other"  # no target given
    # a matroid's full support moats itself when every line lies inside
    w = whirl3()
    assert classify_moat(w, mask_of(range(1, 7)), w) == "h_good"


def test_moat_interior_matches_definition():
    m = make_sparse_paving(6, 2, [{1, 2}, {4, 5}])
    x = {4, 5, 6}
    assert is_moat(m, x)
    assert as_sets(moat_interior(m, x)) == {frozenset({4, 5})}


def test_replace_moat_interior():
    m = make_sparse_paving(6, 2, [{1, 2}, {4, 5}])
    out = replace_moat_interior(m, {4, 5, 6}, [{5, 6}])
    assert as_sets(out.nonbases) == {frozenset({1, 2}), frozenset({5, 6})}
    emptied = replace_moat_interior(m, {4, 5, 6}, [])
    assert as_sets(emptied.nonbases) == {frozenset({1, 2})}
    with pytest.raises(ValueError):
        replace_moat_interior(m, {1, 3}, [])
    with pytest.raises(ValueError):
        replace_moat_interior(m, {4, 5, 6}, [{1, 4}])  # leaves the moat
    with pytest.raises(NotStableError):
        replace_moat_interior(m, {4, 5, 6}, [{4, 5}, {4, 6}])


def test_moat_swap_stability_property():
    # any stable structure inside a moat keeps the whole matroid stable
    hosts = [whirl3(), FANO, make_sparse_paving(6, 2, [{1, 2}, {4, 5}])]
    for m in hosts:
        for size in range(m.r, min(m.n, 5) + 1):
            for xs in combinations(range(1, m.n + 1), size):
                x = mask_of(xs)
                if not is_moat(m, x):
                    continue
                relabel = dict(enumerate(sorted(xs), start=1))
                for fam in johnson_graph(size, m.r).stable_sets():
                    lines = [
                        {relabel[e] for e in elements_of(c)} for c in fam
                    ]
                    swapped = replace_moat_interior(m, x, lines)
                    outside = [c for c in m.nonbases if c & x != c]
                    assert set(outside) <= set(swapped.nonbases)


def test_find_disjoint_good_moats_on_free_matroid():
    got = find_disjoint_good_moats(uniform(2, 6), SINGLE42, size=3, want=2)
    assert len(got) == 2
    assert got[0] & got[1] == 0
    for x in got:
        assert classify_moat(uniform(2, 6), x, SINGLE42) == "empty"


def test_find_disjoint_good_moats_whirl_self():
    w = whirl3()
    got = find_disjoint_good_moats(w, w, size=6, want=1)
    assert got == [mask_of(range(1, 7))]


def test_find_disjoint_good_moats_budget_and_exhaustion(monkeypatch):
    # fano's size-3 good moats are exactly its 7 lines, which pairwise meet:
    # 35 windows, then 7 + (6 + 5 + ... + 0) = 28 packing tests find only one
    monkeypatch.setattr(errors, "WORK_BUDGET", 34)
    with pytest.raises(BudgetExceededError):  # refused before any window
        find_disjoint_good_moats(FANO, FANO, size=3, want=2)
    monkeypatch.setattr(errors, "WORK_BUDGET", 35 + 27)
    with pytest.raises(BudgetExceededError):  # refused in the packing
        find_disjoint_good_moats(FANO, FANO, size=3, want=2)
    monkeypatch.setattr(errors, "WORK_BUDGET", 35 + 28)
    got = find_disjoint_good_moats(FANO, FANO, size=3, want=2)
    assert got == [FANO.nonbases[0]]  # exhaustive: no two disjoint good moats exist
    assert find_disjoint_good_moats(FANO, FANO, size=3, want=2) == got


def test_find_disjoint_good_moats_refuses_fast():
    # 1,820 empty moats of size 4 in {1..16}; five disjoint ones need 20
    # elements, so only an exhaustive packing can say no: refused instead
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        find_disjoint_good_moats(uniform(2, 16), SINGLE42, size=4, want=5)
    assert time.perf_counter() - start < 10


def test_find_disjoint_good_moats_validation():
    with pytest.raises(ValueError):
        find_disjoint_good_moats(FANO, FANO, size=0, want=1)
    with pytest.raises(ValueError):
        find_disjoint_good_moats(FANO, FANO, size=8, want=1)
    with pytest.raises(ValueError):
        find_disjoint_good_moats(FANO, FANO, size=3, want=0)


def test_is_valid_coloring():
    xs = range(1, 7)
    col = greedy_valid_coloring(xs, 2, 11)
    assert is_valid_coloring(xs, col, 2)
    bad = dict(col)
    a, b = frozenset({1, 2}), frozenset({1, 3})
    bad[a] = bad[b] = 0
    assert not is_valid_coloring(xs, bad, 2)


def test_polychromatic_base_cases_and_validation():
    col = {frozenset({e}): e for e in range(1, 9)}
    assert polychromatic_subset(range(1, 9), col, 1, 3) == (1, 2, 3)
    col2 = greedy_valid_coloring(range(1, 9), 2, 3)
    assert polychromatic_subset(range(1, 9), col2, 2, 2) == (1, 2)
    assert polychromatic_subset(range(1, 3), col2, 2, 4) is None  # too few elements
    with pytest.raises(ValueError):
        polychromatic_subset(range(1, 9), col2, 0, 2)
    with pytest.raises(ValueError):
        polychromatic_subset(range(1, 9), col2, 2, 1)


def all_r_subsets_distinct(out, coloring, r):
    seen = {}
    for s in combinations(out, r):
        c = coloring[frozenset(s)]
        if c in seen:
            return False
        seen[c] = s
    return True


def test_polychromatic_exhaustive_path_soundness():
    rng = seeded_rng("poly-exhaustive")
    for i in range(40):
        n = rng.randrange(5, 13)
        r = rng.randrange(2, 4)
        m = rng.randrange(r, min(n, r + 3) + 1)
        col = greedy_valid_coloring(range(1, n + 1), r, derive_seed("poly-ex", i))
        out = polychromatic_subset(range(1, n + 1), col, r, m)
        if out is not None:
            assert len(out) == m and set(out) <= set(range(1, n + 1))
            assert all_r_subsets_distinct(out, col, r)


def test_polychromatic_constructive_path(monkeypatch):
    # force the chain construction by disabling the exhaustive branch
    monkeypatch.setattr(structures, "EXHAUSTIVE_COLOR_CAP", 0)
    cases = [(2, 4, 40), (2, 5, 60), (3, 4, 28)]
    for j, (r, m, size) in enumerate(cases):
        for i in range(3):
            xs = range(1, size + 1)
            col = greedy_valid_coloring(xs, r, derive_seed("poly-con", j, i))
            out = polychromatic_subset(xs, col, r, m)
            assert out is not None, (r, m, size, i)
            assert len(out) == m and all_r_subsets_distinct(out, col, r)


def test_fort_refine_fano_golden():
    assert fort_refine(FANO, {4, 5, 6, 7}, 3) == (4, 5, 6)
    # the three pairing colors 1, 2, 3 cannot color six pairs injectively
    assert fort_refine(FANO, {4, 5, 6, 7}, 4) is None
    with pytest.raises(NotAFortError):
        fort_refine(FANO, {1, 2, 3}, 2)


def test_fort_refine_injectivity_scan():
    m = make_sparse_paving(4, 2, [{1, 3}, {2, 4}])
    out = fort_refine(m, {1, 2}, 2)
    assert out == (1, 2)
    for host, fort, size in ((FANO, {4, 5, 6, 7}, 3), (m, {1, 2}, 2)):
        ref = fort_refine(host, fort, size)
        pairing = {}
        for sub in combinations(ref, host.r - 1):
            inside = mask_of(sub)
            partners = [
                (c & ~mask_of(fort)).bit_length()
                for c in host.nonbases
                if c & inside == inside and (c & ~mask_of(fort)).bit_count() == 1
            ]
            pairing[sub] = min(partners)
        assert len(set(pairing.values())) == len(pairing)
