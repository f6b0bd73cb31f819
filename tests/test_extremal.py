"""Extremal L-free densities, copy packing, and abundance sampling."""
import time
from fractions import Fraction
from math import comb

import pytest

import oracles
from sparsepaving import (
    BadCardinalityError,
    BudgetExceededError,
    LineStructure,
    abundance_trend,
    common_core_lines,
    contains_line_structure,
    count_disjoint_copies,
    disjoint_copies,
    disjoint_lines,
    elements_of,
    ex_density,
    fano_triples,
    find_disjoint_good_moats,
    has_minor,
    johnson_graph,
    make_sparse_paving,
    mask_of,
    uniform,
    whirl3,
)
from sparsepaving import errors

SINGLE2 = LineStructure.build(2, [0b11])
SINGLE3 = LineStructure.build(3, [0b111])
TWO2 = disjoint_lines(2, 2).structure
FANO = make_sparse_paving(7, 3, fano_triples())


def naive_ex(n, r, pattern):
    fams = (
        oracles.stable_families_pruned(n, r)
        if comb(n, r) > 15
        else oracles.all_stable_families(n, r)
    )
    best = 0
    for fam in fams:
        masks = [mask_of(s) for s in fam]
        if contains_line_structure(masks, pattern) is None:
            best = max(best, len(masks))
    return best


def test_single_line_pattern_forces_empty():
    for n in range(4, 9):
        res = ex_density(n, 2, SINGLE2)
        assert res.best_count == 0 and res.density == 0 and res.exact
        assert res.witness.nonbases == ()


def test_two_disjoint_pairs_golden():
    res = ex_density(4, 2, TWO2)
    assert res.best_count == 1
    assert res.density == Fraction(2, 3)
    assert res.exact
    assert len(res.witness.nonbases) == 1


def test_bb_matches_naive_enumeration():
    cases = [
        (4, 2, TWO2),
        (5, 2, TWO2),
        (5, 2, disjoint_lines(2, 2).structure),
        (6, 2, TWO2),
        (6, 2, disjoint_lines(2, 3).structure),
        (6, 3, SINGLE3),
        (6, 3, disjoint_lines(3, 2).structure),
        (5, 3, LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])),
    ]
    for n, r, pattern in cases:
        res = ex_density(n, r, pattern)
        assert res.exact
        assert res.best_count == naive_ex(n, r, pattern), (n, r, pattern)
        assert res.density == Fraction(res.best_count * n, comb(n, r))


def test_monotone_in_pattern_multiplicity():
    # packing more copies is harder to complete, so the bound can only grow
    two = ex_density(8, 2, TWO2)
    four = ex_density(8, 2, disjoint_lines(2, 4).structure)
    assert two.exact and four.exact
    assert two.best_count == 1 and four.best_count == 3
    assert two.density == Fraction(2, 7) and four.density == Fraction(6, 7)
    assert two.best_count <= four.best_count


def test_ex_density_validation():
    with pytest.raises(ValueError):
        ex_density(6, 2, LineStructure.build(2, []))
    with pytest.raises(BadCardinalityError):
        ex_density(6, 2, SINGLE3)
    with pytest.raises(ValueError):
        ex_density(3, 2, TWO2)  # support 4 exceeds the ground set


def test_ex_density_budget_flag():
    # the vertex budget is ex_density's only bound: J(9, 4) is refused
    # before any orbit is built
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="126 vertices"):
        ex_density(9, 4, disjoint_lines(4, 2).structure)
    assert time.perf_counter() - start < 2


def test_ex_density_disjoint_pairs_at_n15_fast():
    # seven disjoint pairs on [15]: about 1.0e10 placements of the pattern,
    # but J(15, 2) has 105 vertices and few orbits, and the best family is
    # six disjoint pairs, the second representative tested
    start = time.perf_counter()
    res = ex_density(15, 2, disjoint_lines(2, 7).structure)
    assert (res.best_count, res.density, res.exact) == (6, Fraction(6, 7), True)
    assert time.perf_counter() - start < 2


WHIRL = whirl3().structure
# whirl3 sent into [7] by 1->7, 2->3, 3->5, 4->1, 5->6, 6->2
WHIRL_RELABELLED = LineStructure.from_sets(3, [{1, 3, 7}, {2, 5, 7}, {3, 5, 6}], 7)
MEETING = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
# lines meeting in 1, 1 and 0 elements
MIXED = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}, {4, 6, 7}])


@pytest.mark.parametrize(
    "n, pattern, nodes, best, witness, tested, scan_witness",
    [
        (6, WHIRL, 228, 2, [(1, 2, 3), (1, 4, 5)], 3, [(2, 3, 6), (4, 5, 6)]),
        (7, WHIRL, 2533, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)],
         8, [(1, 2, 7), (3, 4, 7), (5, 6, 7)]),
        (7, common_core_lines(3, 3).structure, 3935, 4,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)],
         6, [(2, 3, 4), (2, 5, 6), (3, 5, 7), (4, 6, 7)]),
        (6, disjoint_lines(3, 2).structure, 194, 4,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)],
         1, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]),
        (7, MEETING, 576, 2, [(1, 2, 3), (4, 5, 6)], 12, [(2, 3, 4), (5, 6, 7)]),
        (7, WHIRL_RELABELLED, 2533, 3, [(1, 2, 3), (1, 4, 5), (1, 6, 7)],
         8, [(1, 2, 7), (3, 4, 7), (5, 6, 7)]),
        (8, WHIRL, 40142, 4, [(1, 2, 3), (1, 4, 5), (2, 6, 7), (4, 6, 8)],
         21, [(1, 5, 6), (2, 5, 7), (3, 6, 8), (4, 7, 8)]),
        (8, common_core_lines(3, 3).structure, 86303, 5,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 7), (6, 7, 8)],
         18, [(1, 2, 3), (2, 4, 5), (3, 6, 7), (4, 6, 8), (5, 7, 8)]),
    ],
    # the rows keep the ids they had when each also named a work budget,
    # 10**6, and exact=True
    ids=[
        "6-pattern0-1000000-228-2-True-witness0",
        "7-pattern1-1000000-2533-3-True-witness1",
        "7-pattern2-1000000-3935-4-True-witness2",
        "6-pattern3-1000000-194-4-True-witness3",
        "7-pattern4-1000000-576-2-True-witness4",
        "7-pattern5-1000000-2533-3-True-witness5",
        "8-pattern7-1000000-40142-4-True-witness7",
        "8-pattern8-1000000-86303-5-True-witness8",
    ],
)
def test_ex_density_search_trace(n, pattern, nodes, best, witness, tested, scan_witness):
    # nodes, best and witness are those of oracles.reference_ex_search, a
    # branch and bound over stable families in vertex order, recorded with a
    # whole-family check at every node (the n = 8 rows with a search of the
    # copies through the new vertex).  ex_density must reach the same best
    # count; its witness is the first pattern-free orbit representative,
    # found after `tested` representatives
    ref_nodes, ref_best = oracles.reference_ex_search(n, 3, pattern)
    ref_witness = make_sparse_paving(n, 3, johnson_graph(n, 3).masks_of(sum(ref_best)))
    assert (ref_nodes, len(ref_best)) == (nodes, best)
    assert [tuple(elements_of(c)) for c in ref_witness.nonbases] == witness
    res = ex_density(n, 3, pattern)
    assert (res.best_count, res.exact, res.nodes) == (best, True, tested)
    assert [tuple(elements_of(c)) for c in res.witness.nonbases] == scan_witness
    assert contains_line_structure(res.witness.nonbases, pattern) is None


@pytest.mark.parametrize(
    "pattern, tested, best",
    [
        (disjoint_lines(3, 2).structure, 76, 7),
        (WHIRL, 123, 6),
        (common_core_lines(3, 3).structure, 123, 6),
        (disjoint_lines(3, 3).structure, 10, 9),
    ],
)
def test_ex_density_exact_at_n9(pattern, tested, best):
    res = ex_density(9, 3, pattern)
    assert (res.nodes, res.best_count, res.exact) == (tested, best, True)
    assert res.density == Fraction(best * 9, 84)
    assert contains_line_structure(res.witness.nonbases, pattern) is None


def test_ex_density_cap_shortcut_at_fano():
    # fano attains the stable-set bound while avoiding disjoint line pairs,
    # and it is the one orbit of that size, so the scan tests it first
    res = ex_density(7, 3, disjoint_lines(3, 2).structure)
    assert res.exact and res.best_count == 7
    assert res.density == Fraction(7, 5)
    assert res.nodes == 1


@pytest.mark.parametrize("n", [6, 7])
def test_ex_density_every_pattern_class(n):
    # every stable set of J(n, 3) is a valid pattern, so the orbit
    # representatives are one pattern of each class on [n]; the branch and
    # bound of oracles.reference_ex_search must find the same best count
    patterns = [masks for masks, _, _ in johnson_graph(n, 3).orbits() if masks]
    assert len(patterns) == {6: 5, 7: 13}[n]
    for masks in patterns:
        pattern = LineStructure(3, masks)
        _, ref_best = oracles.reference_ex_search(n, 3, pattern)
        assert ex_density(n, 3, pattern).best_count == len(ref_best), masks


def test_witness_avoids_pattern():
    res = ex_density(7, 2, disjoint_lines(2, 3).structure)
    assert contains_line_structure(res.witness.nonbases, disjoint_lines(2, 3).structure) is None
    assert contains_line_structure(res.witness.nonbases, TWO2) is not None  # saturated


def test_disjoint_copies_shapes():
    lk = disjoint_copies(SINGLE3, 3)
    assert lk.r == 3 and len(lk.masks) == 3
    assert lk.masks == (0b111, 0b111000, 0b111000000)
    squished = disjoint_copies(LineStructure.from_sets(2, [{2, 5}]), 2)
    assert squished.masks == (0b11, 0b1100)
    w = disjoint_copies(whirl3().structure, 2)
    assert len(w.masks) == 6 and w.support.bit_count() == 12
    with pytest.raises(ValueError):
        disjoint_copies(SINGLE3, 0)


def test_count_disjoint_copies_goldens():
    assert count_disjoint_copies(disjoint_lines(3, 3).nonbases, SINGLE3) == 3
    # projective-plane and whirl lines pairwise meet: only one line fits
    assert count_disjoint_copies(FANO.nonbases, SINGLE3) == 1
    assert count_disjoint_copies(whirl3().nonbases, SINGLE3) == 1
    assert count_disjoint_copies((), SINGLE3) == 0
    assert count_disjoint_copies(FANO.nonbases, whirl3().structure) == 1
    with pytest.raises(ValueError):
        count_disjoint_copies(FANO.nonbases, LineStructure.build(3, []))


def test_count_disjoint_copies_unpacks_count_and_flag():
    # the answer is exact or refused, so the count comes back as a bare int
    got = count_disjoint_copies(disjoint_lines(2, 4).nonbases, TWO2)
    assert type(got) is int and got == 2


def test_count_disjoint_copies_budget(monkeypatch):
    # 7 embeddings of one line into fano (its 3 elements are loose, so one
    # map per line), then 27 packing tests: the 7 lines pairwise meet, so
    # first lines 1..6 are tried (6 tests) and line i then tests the 7 - i
    # lines after it (6 + 5 + 4 + 3 + 2 + 1), until no branch can beat one line
    monkeypatch.setattr(errors, "WORK_BUDGET", 6)
    with pytest.raises(BudgetExceededError, match="embeddings"):
        count_disjoint_copies(FANO.nonbases, SINGLE3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 7 + 26)
    with pytest.raises(BudgetExceededError, match="packing"):
        count_disjoint_copies(FANO.nonbases, SINGLE3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 7 + 27)
    assert count_disjoint_copies(FANO.nonbases, SINGLE3) == 1


@pytest.mark.parametrize("search", [
    lambda: has_minor(FANO, uniform(2, 4)),
    lambda: count_disjoint_copies(FANO.nonbases, SINGLE3),
    lambda: find_disjoint_good_moats(FANO, FANO, size=3, want=2),
], ids=["has_minor", "count_disjoint_copies", "find_disjoint_good_moats"])
def test_every_search_refuses_past_the_work_budget(monkeypatch, search):
    search()  # admitted by the default budget
    monkeypatch.setattr(errors, "WORK_BUDGET", 5)  # one patch reaches every search
    with pytest.raises(BudgetExceededError):
        search()


def test_abundance_determinism_and_fields():
    h = make_sparse_paving(4, 2, [{1, 2}])
    a = abundance_trend(h, [6], m=1, samples=25, seed=7)
    b = abundance_trend(h, [6], m=1, samples=25, seed=7)
    assert a == b
    row = a[0]
    assert row["n"] == 6 and row["samples"] == 25 and row["m"] == 1
    assert row["disjoint_frac"] == Fraction(row["disjoint_hits"], 25)
    assert row["clean_frac"] == Fraction(row["clean_hits"], 25)
    assert sum(row["rank_hist"].values()) == 25
    assert row["exact"] is True
    assert 0 <= row["clean_hits"] <= row["disjoint_hits"] <= 25


def test_abundance_exhaustive_population():
    h = make_sparse_paving(4, 2, [{1, 2}])
    row = abundance_trend(h, [5], m=1, samples=0, seed=0)[0]
    assert row["samples"] == 66 and row["exact"] is True
    assert sum(row["rank_hist"].values()) == 66
    with pytest.raises(BudgetExceededError):
        abundance_trend(h, [9], m=1, samples=0, seed=0)


def test_abundance_empty_pattern_convention():
    free = uniform(2, 4)
    rows = abundance_trend(free, [5, 6], m=1, samples=10, seed=3)
    for row in rows:
        assert row["disjoint_frac"] == 1  # zero copies always pack
        assert row["clean_frac"] <= 1


def test_abundance_rejects_negative_m():
    with pytest.raises(ValueError):
        abundance_trend(uniform(2, 4), [5], m=-1, samples=2, seed=0)
