"""Extremal L-free densities, copy packing, and abundance sampling."""
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
    make_sparse_paving,
    mask_of,
    uniform,
    whirl3,
)
from sparsepaving.extremal import DEFAULT_NODE_BUDGET

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
    # avoiding two meeting lines caps the family at 2 disjoint lines, far
    # below the stable-set ceiling, so the search has to run its course
    meeting = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
    res = ex_density(7, 3, meeting, budget=25)
    assert not res.exact and res.nodes == 25  # the node that trips the budget is not searched
    zero = ex_density(7, 3, meeting, budget=0)
    assert not zero.exact and zero.nodes == 0 and zero.best_count == 0
    full = ex_density(7, 3, meeting)
    assert full.exact and full.best_count == 2
    assert res.best_count <= full.best_count


WHIRL = whirl3().structure
# whirl3 sent into [7] by 1->7, 2->3, 3->5, 4->1, 5->6, 6->2
WHIRL_RELABELLED = LineStructure.from_sets(3, [{1, 3, 7}, {2, 5, 7}, {3, 5, 6}], 7)
MEETING = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
FULL = DEFAULT_NODE_BUDGET


@pytest.mark.parametrize(
    "n, pattern, budget, nodes, best, exact, witness",
    [
        (6, WHIRL, FULL, 228, 2, True, [(1, 2, 3), (1, 4, 5)]),
        (7, WHIRL, FULL, 2533, 3, True, [(1, 2, 3), (1, 4, 5), (1, 6, 7)]),
        (7, common_core_lines(3, 3).structure, FULL, 3935, 4, True,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]),
        (6, disjoint_lines(3, 2).structure, FULL, 194, 4, True,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)]),
        (7, MEETING, FULL, 576, 2, True, [(1, 2, 3), (4, 5, 6)]),
        (7, WHIRL_RELABELLED, FULL, 2533, 3, True, [(1, 2, 3), (1, 4, 5), (1, 6, 7)]),
        (7, MEETING, 25, 25, 2, False, [(1, 2, 3), (4, 5, 6)]),
    ],
)
def test_ex_density_search_trace(n, pattern, budget, nodes, best, exact, witness):
    # node counts, incumbents and witnesses recorded with a whole-family
    # check at every node; checking only copies through the new vertex must
    # walk the same tree (an aborted search counts exactly its budget)
    res = ex_density(n, 3, pattern, budget)
    assert (res.nodes, res.best_count, res.exact) == (nodes, best, exact)
    assert [tuple(elements_of(c)) for c in res.witness.nonbases] == witness


def test_ex_density_cap_shortcut_at_fano():
    # fano attains the stable-set bound while avoiding disjoint line pairs
    res = ex_density(7, 3, disjoint_lines(3, 2).structure)
    assert res.exact and res.best_count == 7
    assert res.density == Fraction(7, 5)
    assert res.nodes == 7


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
    got = count_disjoint_copies(disjoint_lines(3, 3).nonbases, SINGLE3)
    assert got.count == 3 and got.exact
    # projective-plane and whirl lines pairwise meet: only one line fits
    assert count_disjoint_copies(FANO.nonbases, SINGLE3).count == 1
    assert count_disjoint_copies(whirl3().nonbases, SINGLE3).count == 1
    empty = count_disjoint_copies((), SINGLE3)
    assert empty.count == 0 and empty.exact
    assert count_disjoint_copies(FANO.nonbases, whirl3().structure).count == 1
    with pytest.raises(ValueError):
        count_disjoint_copies(FANO.nonbases, LineStructure.build(3, []))


def test_count_disjoint_copies_unpacks_count_and_flag():
    got = count_disjoint_copies(disjoint_lines(2, 4).nonbases, TWO2)
    assert got.count == 2 and got.exact


def test_count_disjoint_copies_budget():
    res = count_disjoint_copies(FANO.nonbases, SINGLE3, budget=2)
    assert not res.exact
    assert res.count <= 1  # still a valid lower bound


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
        abundance_trend(h, [8], m=1, samples=0, seed=0)


def test_abundance_empty_pattern_convention():
    free = uniform(2, 4)
    rows = abundance_trend(free, [5, 6], m=1, samples=10, seed=3)
    for row in rows:
        assert row["disjoint_frac"] == 1  # zero copies always pack
        assert row["clean_frac"] <= 1


def test_abundance_rejects_negative_m():
    with pytest.raises(ValueError):
        abundance_trend(uniform(2, 4), [5], m=-1, samples=2, seed=0)
