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
    iter_embeddings,
    johnson_graph,
    make_sparse_paving,
    mask_of,
    uniform,
    whirl3,
)
from sparsepaving import errors, extremal
from sparsepaving.extremal import _copy_table
from sparsepaving.minors import _regions

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


def test_ex_density_budget_flag(monkeypatch):
    # avoiding two meeting lines caps the family at 2 disjoint lines, far
    # below the stable-set ceiling, so the search has to run its course:
    # a copy table of 7!/(2! 2!) = 630 placements (regions {1}, {2,3},
    # {4,5}), then 278 nodes.  A budget of 0 is refused at the table, 907
    # after 277 nodes, and 908 is admitted
    meeting = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
    for budget, match in ((0, "630 copy-table placements"), (907, "more than 277 nodes")):
        monkeypatch.setattr(errors, "WORK_BUDGET", budget)
        with pytest.raises(BudgetExceededError, match=match):
            ex_density(7, 3, meeting)
    monkeypatch.setattr(errors, "WORK_BUDGET", 908)
    full = ex_density(7, 3, meeting)
    assert full.exact and full.best_count == 2 and full.nodes == 278


def test_ex_density_oversized_table_refused_fast(monkeypatch):
    # seven disjoint pairs on [15]: 15! / 2!^7, about 1.0e10 placements
    def never(*args):
        raise AssertionError("the copy table was built")

    monkeypatch.setattr(extremal, "_copy_table", never)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="10216206000 copy-table placements"):
        ex_density(15, 2, disjoint_lines(2, 7).structure)
    assert time.perf_counter() - start < 2


WHIRL = whirl3().structure
# whirl3 sent into [7] by 1->7, 2->3, 3->5, 4->1, 5->6, 6->2
WHIRL_RELABELLED = LineStructure.from_sets(3, [{1, 3, 7}, {2, 5, 7}, {3, 5, 6}], 7)
MEETING = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
# lines meeting in 1, 1 and 0 elements
MIXED = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}, {4, 6, 7}])
FULL = errors.WORK_BUDGET


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
        (7, MEETING, 630 + 25, 25, 2, False, [(1, 2, 3), (4, 5, 6)]),
        (8, WHIRL, FULL, 40142, 4, True, [(1, 2, 3), (1, 4, 5), (2, 6, 7), (4, 6, 8)]),
        (8, common_core_lines(3, 3).structure, FULL, 86303, 5, True,
         [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 7), (6, 7, 8)]),
    ],
)
def test_ex_density_search_trace(monkeypatch, n, pattern, budget, nodes, best, exact, witness):
    # node counts, incumbents and witnesses recorded with a whole-family
    # check at every node (the n = 8 rows with a search of the copies
    # through the new vertex).  The node counts are those of the search by
    # vertex count alone, oracles.reference_ex_search; ex_density's
    # candidate bound prunes more (test_ex_density_candidate_bound_nodes)
    # but must reach the same incumbent and witness.  With budget as
    # errors.WORK_BUDGET, a row whose exact is False is refused after its
    # 630 placements and `nodes` nodes, holding `best` lines
    monkeypatch.setattr(errors, "WORK_BUDGET", budget)
    if not exact:
        with pytest.raises(BudgetExceededError, match=f"more than {nodes} nodes; best so far {best}$"):
            ex_density(n, 3, pattern)
        return
    ref_nodes, ref_best = oracles.reference_ex_search(n, 3, pattern)
    ref_witness = make_sparse_paving(n, 3, johnson_graph(n, 3).masks_of(sum(ref_best)))
    assert (ref_nodes, len(ref_best)) == (nodes, best)
    assert [tuple(elements_of(c)) for c in ref_witness.nonbases] == witness
    res = ex_density(n, 3, pattern)
    assert (res.best_count, res.exact) == (best, exact)
    assert [tuple(elements_of(c)) for c in res.witness.nonbases] == witness


@pytest.mark.parametrize(
    "n, pattern, nodes, best",
    [
        (6, WHIRL, 102, 2),
        (7, WHIRL, 1171, 3),
        (7, common_core_lines(3, 3).structure, 2502, 4),
        (6, disjoint_lines(3, 2).structure, 96, 4),
        (7, MEETING, 278, 2),
        (7, WHIRL_RELABELLED, 1171, 3),
        (8, WHIRL, 15928, 4),
        (8, common_core_lines(3, 3).structure, 36584, 5),
    ],
)
def test_ex_density_candidate_bound_nodes(n, pattern, nodes, best):
    # the node counts of the candidate-bounded search, which prunes a branch
    # once its vertices neither blocked nor forbidden cannot beat the
    # incumbent; the rows of test_ex_density_search_trace, whose counts are
    # those of the search by vertex count alone
    res = ex_density(n, 3, pattern)
    assert (res.nodes, res.best_count, res.exact) == (nodes, best, True)


def test_copy_table_matches_filtered_full_search():
    # oracle: the embeddings of host + [v] whose image uses the line v.  The
    # keys inside host whose value holds v must be exactly their other
    # lines.  Every key has one line less than the pattern, so hosts of
    # that many lines already meet every key: J(6, 3) takes every stable
    # set, while J(7, 3) (for a support of 7) and J(8, 2) take the small ones
    cases = [
        (6, WHIRL, None),
        (6, disjoint_lines(3, 2).structure, None),
        (6, common_core_lines(3, 2).structure, None),
        (6, SINGLE3, None),
        (7, common_core_lines(3, 3).structure, 2),
        (7, MIXED, 2),
        (8, disjoint_lines(2, 4).structure, 3),
    ]
    for n, pattern, most in cases:
        g = johnson_graph(n, pattern.r)
        table = _copy_table(g, pattern.masks, _regions(pattern))
        assert table == oracles.reference_copy_table(g, pattern.masks, _regions(pattern))
        found = 0
        for host in g.stable_sets():
            if most is not None and len(host) > most:
                continue
            inside = g.indices_of(host)
            keys = [(key, value) for key, value in table.items() if key & inside == key]
            for i, v in enumerate(g.vertices):
                if inside >> i & 1:
                    continue
                want = {
                    frozenset(hl for _, hl in e.line_images if hl != v)
                    for e in iter_embeddings(list(host) + [v], pattern)
                    if any(hl == v for _, hl in e.line_images)
                }
                got = {frozenset(g.masks_of(key)) for key, value in keys if value >> i & 1}
                assert got == want, (pattern.masks, host, v)
                found += len(got)
        assert found > 0, pattern.masks


@pytest.mark.parametrize(
    "n, pattern, copies",
    [(7, WHIRL, 840), (8, WHIRL, 3360), (8, disjoint_lines(3, 2).structure, 280)],
)
def test_copy_table_matches_reference_walk(n, pattern, copies):
    # the reference places the regions straight into [n], |Aut(L)| times per
    # copy; the library builds each copy once from the copies on [s]
    g = johnson_graph(n, pattern.r)
    table = _copy_table(g, pattern.masks, _regions(pattern))
    assert table == oracles.reference_copy_table(g, pattern.masks, _regions(pattern))
    assert sum(v.bit_count() for v in table.values()) == copies * len(pattern.masks)


@pytest.mark.parametrize(
    "pattern, nodes, best",
    [
        (disjoint_lines(3, 2).structure, 27835, 7),
        (WHIRL, 167214, 6),
        # fits WORK_BUDGET only under the candidate bound: pruning on the
        # vertices left passes 977,320 nodes after 22,680 placements
        (common_core_lines(3, 3).structure, 701352, 6),
    ],
)
def test_ex_density_exact_at_n9(pattern, nodes, best):
    res = ex_density(9, 3, pattern)
    assert (res.nodes, res.best_count, res.exact) == (nodes, best, True)
    assert contains_line_structure(res.witness.nonbases, pattern) is None


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
    # 42 embeddings of one line into fano (7 lines, 3! maps each), then 27
    # packing tests: the 7 lines pairwise meet, so first lines 1..6 are
    # tried (6 tests) and line i then tests the 7 - i lines after it
    # (6 + 5 + 4 + 3 + 2 + 1), until no branch can beat one line
    monkeypatch.setattr(errors, "WORK_BUDGET", 41)
    with pytest.raises(BudgetExceededError, match="embeddings"):
        count_disjoint_copies(FANO.nonbases, SINGLE3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 42 + 26)
    with pytest.raises(BudgetExceededError, match="packing"):
        count_disjoint_copies(FANO.nonbases, SINGLE3)
    monkeypatch.setattr(errors, "WORK_BUDGET", 42 + 27)
    assert count_disjoint_copies(FANO.nonbases, SINGLE3) == 1


@pytest.mark.parametrize("search", [
    lambda: has_minor(FANO, uniform(2, 4)),
    lambda: ex_density(7, 3, disjoint_lines(3, 2).structure),
    lambda: count_disjoint_copies(FANO.nonbases, SINGLE3),
    lambda: find_disjoint_good_moats(FANO, FANO, size=3, want=2),
], ids=["has_minor", "ex_density", "count_disjoint_copies", "find_disjoint_good_moats"])
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
