"""Contraction, restriction, embeddings, and minor containment."""
from functools import cache, partial
from itertools import combinations
from math import comb

import pytest

import oracles
from helpers import seeded_rng
from sparsepaving import (
    BadCardinalityError,
    BudgetExceededError,
    DependentContractionSetError,
    LineStructure,
    MismatchedAmbientError,
    RankDeficientError,
    clean_copy_minor,
    common_core_lines,
    contains_line_structure,
    contract,
    disjoint_lines,
    elements_of,
    fano_triples,
    has_minor,
    has_uniform_minor,
    independent_subsets,
    iter_embeddings,
    johnson_graph,
    lift,
    make_sparse_paving,
    mask_of,
    restrict,
    uniform,
    whirl3,
)
from sparsepaving.bits import ascending_subsets, r_subsets
from sparsepaving import errors
from sparsepaving.minors import _copy_set, _window_table

FANO = make_sparse_paving(7, 3, fano_triples())
SINGLE42 = make_sparse_paving(4, 2, [{1, 2}])
# lines meeting in 1, 1 and 0 elements: its intersection sizes are not all equal
MIXED73 = make_sparse_paving(7, 3, [{1, 2, 3}, {1, 4, 5}, {4, 6, 7}])


@cache
def all_matroids(n):
    out = []
    for r in range(n + 1):
        if r in (0, n):
            out.append(make_sparse_paving(n, r, ()))
            continue
        for fam in johnson_graph(n, r).stable_sets():
            out.append(make_sparse_paving(n, r, LineStructure.build(r, fam)))
    return tuple(out)


def quotient_deps_via_oracle(m, a_elems, keep_elems):
    bases = oracles.bases_of(m.n, m.r, [set(elements_of(c)) for c in m.nonbases])
    minor_bases, rank = oracles.minor_on(bases, a_elems, keep_elems)
    return {frozenset(b) for b in minor_bases}, rank


def test_contract_matches_rank_oracle():
    rng = seeded_rng("minors-contract")
    hosts = [FANO, whirl3(), SINGLE42, make_sparse_paving(6, 3, [{1, 2, 3}, {3, 4, 5}])]
    for m in hosts:
        for _ in range(8):
            d = rng.randrange(0, m.r)
            a = rng.choice(list(independent_subsets(m, d)))
            q = contract(m, a)
            keep = set(elements_of(q.groundset))
            minor_bases, rank = quotient_deps_via_oracle(m, set(elements_of(a)), keep)
            assert rank == q.rank == m.r - d
            got_dep = {frozenset(elements_of(c)) for c in q.dependents}
            expect_dep = {
                frozenset(s) for s in combinations(sorted(keep), q.rank)
            } - minor_bases
            assert got_dep == expect_dep, (m, a)


def test_restrict_matches_rank_oracle():
    m = FANO
    q = contract(m, {7})
    keep = {1, 2, 3, 4}
    r2 = restrict(q, keep)
    minor_bases, rank = quotient_deps_via_oracle(m, {7}, keep)
    assert rank == r2.rank == 2
    got_dep = {frozenset(elements_of(c)) for c in r2.dependents}
    assert got_dep == {frozenset(s) for s in combinations(sorted(keep), 2)} - minor_bases


def test_contract_rejects_dependent_sets():
    with pytest.raises(DependentContractionSetError):
        contract(SINGLE42, {1, 2})
    with pytest.raises(DependentContractionSetError):
        contract(SINGLE42, {1, 2, 3})
    q = contract(SINGLE42, {1})
    assert q.rank == 1 and q.dependents == (mask_of([2]),)


def test_restrict_errors():
    q = contract(FANO, {7})
    with pytest.raises(MismatchedAmbientError):
        restrict(q, {6, 7})
    # {1, 2} spans only a dependent pair after contracting 7: {1,2,7} misses
    # fano, so look for a window whose every rank-size subset is dependent
    dep_pair = next(elements_of(c) for c in q.dependents)
    with pytest.raises(RankDeficientError):
        restrict(q, set(dep_pair))
    with pytest.raises(RankDeficientError):
        restrict(q, {1})


def test_embedding_validity_and_triangle_in_fano():
    emb = contains_line_structure(FANO.nonbases, whirl3().structure)
    assert emb is not None
    iso = dict(emb.element_map)
    assert len(set(iso.values())) == len(iso)
    host_lines = {frozenset(elements_of(c)) for c in FANO.nonbases}
    for pl, hl in emb.line_images:
        assert frozenset(iso[e] for e in elements_of(pl)) == frozenset(elements_of(hl))
        assert frozenset(elements_of(hl)) in host_lines


def test_no_disjoint_pair_in_fano():
    # projective-plane lines pairwise meet
    assert contains_line_structure(FANO.nonbases, disjoint_lines(3, 2).structure) is None


def test_iter_embeddings_single_line_hits_every_host_line():
    pattern = LineStructure.build(3, [0b111])
    images = {hl for emb in iter_embeddings(FANO.nonbases, pattern) for _, hl in emb.line_images}
    assert images == set(FANO.nonbases)


def test_embeddings_respect_intersection_pattern():
    host = make_sparse_paving(6, 3, [{1, 2, 3}, {3, 4, 5}])
    two_meeting = common_core_lines(3, 2)  # lines {1,2,3}, {1,4,5} meet in one point
    emb = contains_line_structure(host.nonbases, two_meeting.structure)
    assert emb is not None
    assert contains_line_structure(host.nonbases, disjoint_lines(3, 2).structure) is None


def _assert_witness_realizes(m, h, w):
    parts = (w.contracted, w.kept, w.deleted)
    assert w.contracted | w.kept | w.deleted == m.groundset
    assert sum(p.bit_count() for p in parts) == m.n
    iso = dict(w.iso)
    assert sorted(iso) == list(range(1, h.n + 1))
    kept = set(elements_of(w.kept))
    assert set(iso.values()) == kept and len(set(iso.values())) == h.n
    q = contract(m, w.contracted)
    for sub in combinations(range(1, h.n + 1), h.r):
        image = mask_of([iso[e] for e in sub])
        assert (mask_of(sub) in h.nonbases) == (image in q.dependents), sub


def test_has_minor_matches_oracle_small():
    targets = [uniform(1, 2), uniform(2, 3), uniform(2, 4), SINGLE42]
    for n in (4, 5):
        for m in all_matroids(n):
            for h in targets:
                if h.r > m.r or h.n > m.n:
                    assert not oracles.has_minor_oracle(m, h)
                    with pytest.raises(ValueError):
                        has_minor(m, h)
                    continue
                w = has_minor(m, h)
                assert (w is not None) == oracles.has_minor_oracle(m, h), (m, h)
                if w is not None:
                    _assert_witness_realizes(m, h, w)


def test_has_minor_budget(monkeypatch):
    monkeypatch.setattr(errors, "WORK_BUDGET", 10)
    with pytest.raises(BudgetExceededError):
        has_minor(FANO, uniform(2, 4))


def test_has_uniform_minor_agrees_with_general_search():
    for n in (4, 5):
        for m in all_matroids(n):
            for t, k in ((1, 2), (2, 3), (2, 4)):
                fast = has_uniform_minor(m, t, k)
                if t > m.r or k > m.n:
                    assert fast is None
                    continue
                slow = has_minor(m, uniform(t, k))
                assert (fast is None) == (slow is None), (m, t, k)
                if fast is not None:
                    _assert_witness_realizes(m, uniform(t, k), fast)


def test_clean_copy_implies_minor():
    padded_whirl = make_sparse_paving(7, 3, [{1, 2, 4}, {2, 3, 5}, {1, 3, 6}])
    hosts = [
        (lift(SINGLE42, 1), SINGLE42, mask_of([5])),
        (padded_whirl, whirl3(), 0),
        (make_sparse_paving(6, 2, [{1, 2}, {3, 4}]), SINGLE42, 0),
    ]
    for m, h, a in hosts:
        w = clean_copy_minor(m, a, h)
        assert w is not None, (m, h)
        assert has_minor(m, h) is not None
        # kept window carries exactly the embedded dependents
        q = contract(m, a)
        image = {hl for _, hl in w.embedding.line_images}
        inside = {dep for dep in q.dependents if dep & w.kept == dep}
        assert inside == image
    # fano embeds the whirl triangle, but every 6-point window keeps 4 lines,
    # so the copy is never clean
    assert contains_line_structure(FANO.nonbases, whirl3().structure) is not None
    assert clean_copy_minor(FANO, 0, whirl3()) is None


@cache
def scout_population():
    """All of S_6 plus a seeded tenth of S_7."""
    rng = seeded_rng("minors-scout-slice")
    return all_matroids(6) + tuple(m for m in all_matroids(7) if rng.random() < 0.1)


def test_minor_duality():
    # (M / A \ B)* = M* \ A / B, so M has an H-minor exactly when M* has an
    # H*-minor; the guard (rank and corank of H within those of M) is the
    # same on both sides
    targets = [uniform(2, 4), whirl3(), disjoint_lines(3, 2), common_core_lines(3, 2)]
    duals = [oracles.dual(h) for h in targets]
    checked = 0
    for m in scout_population():
        m_star = oracles.dual(m)
        assert oracles.dual(m_star) == m
        for h, h_star in zip(targets, duals):
            if h.r > m.r or h.n - h.r > m.n - m.r:
                continue
            found = has_minor(m, h) is not None
            assert found == (has_minor(m_star, h_star) is not None), (m, h)
            checked += 1
    assert checked > 1000


def test_has_minor_equals_clean_copy_scout():
    targets = [uniform(2, 4), whirl3(), disjoint_lines(2, 2), common_core_lines(3, 2),
               uniform(3, 5), disjoint_lines(3, 2)]
    hits = [0] * len(targets)
    for m in scout_population():
        for i, h in enumerate(targets):
            minor = m.r >= h.r and m.n >= h.n and has_minor(m, h) is not None
            assert minor == oracles.clean_copy_scout_hit(m, h), (m, h)
            hits[i] += minor
    assert all(hits), hits  # every target is found somewhere, so equality is not vacuous


def test_clean_copy_minor_equals_scout_per_contraction_set():
    for m in scout_population():
        if m.r < SINGLE42.r:
            continue
        for a in independent_subsets(m, m.r - SINGLE42.r):
            w = clean_copy_minor(m, a, SINGLE42)
            assert (w is None) == (oracles.clean_copy_scout(m, a, SINGLE42) is None), (m, a)
            if w is not None:
                _assert_witness_realizes(m, SINGLE42, w)


@cache
def reference_population():
    """All of S_5 and S_6 plus a seeded third of S_7."""
    rng = seeded_rng("minors-reference-slice")
    return all_matroids(5) + all_matroids(6) + tuple(
        m for m in all_matroids(7) if rng.random() < 1 / 3
    )


def test_witnesses_equal_reference_search():
    targets = [uniform(2, 4), whirl3(), uniform(3, 5), disjoint_lines(2, 2),
               common_core_lines(3, 2), disjoint_lines(3, 2), SINGLE42, MIXED73]
    uniforms = [(2, 4), (3, 5), (1, 3)]
    hits = [0] * (len(targets) + len(uniforms) + 1)
    for m in reference_population():
        for i, h in enumerate(targets):
            if m.r >= h.r and m.n >= h.n:
                w = has_minor(m, h)
                assert w == oracles.reference_first_minor(m, h), (m, h)
                hits[i] += w is not None
        for i, (t, k) in enumerate(uniforms, len(targets)):
            w = has_uniform_minor(m, t, k)
            ref = None if t > m.r else oracles.reference_first_minor(m, uniform(t, k))
            assert w == ref, (m, t, k)
            hits[i] += w is not None
        a = next(independent_subsets(m, m.r - SINGLE42.r), None) if m.r >= SINGLE42.r else None
        if a is not None:
            w = clean_copy_minor(m, a, SINGLE42)
            assert w == oracles.reference_minor_after(m, a, SINGLE42), (m, a)
            hits[-1] += w is not None
    assert all(hits), hits  # every search finds witnesses, so equality is not vacuous


def test_witnesses_equal_reference():
    searches = []  # (search, the oracle's witness)
    for m in scout_population():
        for h in (whirl3(), MIXED73):
            if m.r >= h.r and m.n >= h.n:
                searches.append((partial(has_minor, m, h), oracles.reference_first_minor(m, h)))
        if m.r >= 2:
            ref = oracles.reference_first_minor(m, uniform(2, 4))
            searches.append((partial(has_uniform_minor, m, 2, 4), ref))
            a = next(independent_subsets(m, m.r - SINGLE42.r))
            ref = oracles.reference_minor_after(m, a, SINGLE42)
            searches.append((partial(clean_copy_minor, m, a, SINGLE42), ref))
    expected = [w for _, w in searches]
    for _ in range(2):  # the second pass reads every copy set from the cache
        assert [search() for search, _ in searches] == expected
    assert sum(w is not None for w in expected) > len(expected) / 2


@pytest.mark.parametrize(
    "h",
    [whirl3(), MIXED73, disjoint_lines(3, 2), common_core_lines(3, 3)],
    ids=["whirl3", "mixed73", "disjoint:3:2", "core:3:3"],
)
def test_copy_set_membership_equals_embedding(h):
    # a family of |L| r-sets is a copy of L exactly when L embeds into it.
    # The hosts cycle through random families, relabelled copies and
    # copies with one line swapped for a random r-set
    pattern = h.structure
    rng = seeded_rng("minors-copy-set", *pattern.masks)
    for n in range(max(6, h.n), 9):
        subsets = ascending_subsets(n, h.r)
        copy_set = _copy_set(n, pattern)
        hits = 0
        for trial in range(600):
            image = rng.sample(range(1, n + 1), h.n)
            host = [mask_of(image[e - 1] for e in elements_of(c)) for c in pattern.masks]
            if trial % 3 == 0:
                host = rng.sample(subsets, len(host))
            elif trial % 3 == 2:
                host[rng.randrange(len(host))] = rng.choice(subsets)
            mask = 0
            for c in host:
                mask |= 1 << subsets.index(c)
            found = contains_line_structure(host, pattern) is not None
            assert (mask in copy_set) == found, (n, host)
            hits += found
        assert 200 <= hits < 400, (n, hits)


def test_window_tables_one_per_target_shape():
    _window_table.cache_clear()
    for m in all_matroids(6) + all_matroids(7):
        for h in (uniform(2, 4), whirl3()):
            if m.r >= h.r:
                has_minor(m, h)
    # (6, 2, 4), (7, 2, 4), (6, 3, 6) and (7, 3, 6)
    assert _window_table.cache_info().currsize <= 4


def test_window_table_rows_hold_their_subsets():
    for n, t, k in ((6, 2, 4), (7, 3, 6), (5, 0, 2), (5, 1, 1)):
        subsets = ascending_subsets(n, t)
        index, rows = _window_table(n, t, k)
        assert subsets == tuple(sorted(r_subsets(n, t)))
        assert [e for e, _ in rows] == list(r_subsets(n, k))
        assert all(index[s] == i for i, s in enumerate(subsets))
        for e, inside in rows:
            assert inside == sum(1 << i for i, s in enumerate(subsets) if s & e == s)


def test_over_budget_shape_raises_before_building(monkeypatch):
    # 35 windows x (7 contraction sets + 21-bit rows); FANO is binary
    monkeypatch.setattr(errors, "WORK_BUDGET", 35 * (7 + 21))
    assert has_minor(FANO, uniform(2, 4)) is None
    monkeypatch.setattr(errors, "WORK_BUDGET", 35 * (7 + 21) - 1)
    with pytest.raises(BudgetExceededError):
        has_minor(FANO, uniform(2, 4))
    monkeypatch.undo()
    # C(24, 12) windows of C(24, 6) = 134,596 bits each: far past the budget
    big = make_sparse_paving(24, 6, [])
    _window_table.cache_clear()
    with pytest.raises(BudgetExceededError):
        has_minor(big, uniform(6, 12))
    with pytest.raises(BudgetExceededError):
        has_uniform_minor(big, 6, 12)
    with pytest.raises(BudgetExceededError):
        clean_copy_minor(big, 0, uniform(6, 12))
    assert _window_table.cache_info().misses == 0


def test_copy_build_counts_against_the_budget(monkeypatch):
    # 7 windows x (1 contraction set + 35-bit rows), plus whirl3's
    # 6! / |Aut| = 720 / 6 = 120 shapes on [6] x (5 swap tests + C(7, 6) supports)
    host = make_sparse_paving(7, 3, whirl3().nonbases)
    charge = 7 * (1 + 35) + 120 * (5 + 7)
    assert charge == 1692
    _copy_set.cache_clear()
    monkeypatch.setattr(errors, "WORK_BUDGET", charge - 1)
    with pytest.raises(BudgetExceededError, match="1440 copy-build steps exceed budget 1691"):
        has_minor(host, whirl3())
    with pytest.raises(BudgetExceededError):
        clean_copy_minor(host, 0, whirl3())
    assert _copy_set.cache_info().misses == 0
    monkeypatch.setattr(errors, "WORK_BUDGET", charge)
    w = has_minor(host, whirl3())
    assert w is not None and w == clean_copy_minor(host, 0, whirl3())


def test_copy_build_charge_follows_the_shapes():
    # disjoint:2:5 has 10! / (2^5 5!) = 945 shapes on [10]: 11 windows x
    # (1 + 55) + 945 x (9 + 11) = 19,516 steps, where the count of region
    # placements into [11] alone was 1,247,400
    h = disjoint_lines(2, 5)
    host = make_sparse_paving(11, 2, [{1, 7}, {2, 9}, {3, 11}, {4, 6}, {5, 10}])
    w = has_minor(host, h)
    assert w is not None and w.kept == mask_of(set(range(1, 12)) - {8})
    _assert_witness_realizes(host, h, w)
    # disjoint:5:3 has 15! / (5!^3 3!) = 126,126 shapes on [15], each with
    # 14 swap tests: 1,891,890 steps for one support, past the budget
    h = disjoint_lines(5, 3)
    _copy_set.cache_clear()
    with pytest.raises(BudgetExceededError, match="1891890 copy-build steps"):
        has_minor(h, h)
    assert _copy_set.cache_info().misses == 0


def test_clean_copy_validation():
    with pytest.raises(BadCardinalityError):
        clean_copy_minor(lift(SINGLE42, 1), 0, SINGLE42)
    with pytest.raises(DependentContractionSetError):
        clean_copy_minor(make_sparse_paving(5, 3, [{1, 2, 5}]), {1, 2, 5}, uniform(0, 2))
    with pytest.raises(ValueError):
        clean_copy_minor(SINGLE42, 0, FANO)
    # whirl has no clean fano window
    assert clean_copy_minor(whirl3(), 0, FANO) is None


def test_lift_identity():
    corpus = [SINGLE42, whirl3(), FANO]
    for h in corpus:
        for d in (1, 2):
            big = lift(h, d)
            assert big.n == h.n + d and big.r == h.r + d
            w = has_minor(big, h)
            assert w is not None
            assert w.contracted.bit_count() == d
            _assert_witness_realizes(big, h, w)
    assert lift(SINGLE42, 0) == SINGLE42


def test_stock_constructions():
    u = uniform(2, 4)
    assert (u.n, u.r, u.nonbases) == (4, 2, ())
    w = whirl3()
    assert (w.n, w.r) == (6, 3)
    assert {frozenset(elements_of(c)) for c in w.nonbases} == {
        frozenset(s) for s in ({1, 2, 4}, {2, 3, 5}, {1, 3, 6})
    }
    dj = disjoint_lines(2, 3)
    assert (dj.n, dj.r) == (6, 2)
    assert {frozenset(elements_of(c)) for c in dj.nonbases} == {
        frozenset(s) for s in ({1, 2}, {3, 4}, {5, 6})
    }
    cc = common_core_lines(3, 2)
    assert (cc.n, cc.r) == (5, 3)
    assert {frozenset(elements_of(c)) for c in cc.nonbases} == {
        frozenset({1, 2, 3}),
        frozenset({1, 4, 5}),
    }
    # empty core at rank 2 degenerates to disjoint pairs
    assert common_core_lines(2, 2).nonbases == disjoint_lines(2, 2).nonbases


def test_stock_construction_errors():
    for bad in (lambda: uniform(3, 2), lambda: disjoint_lines(1, 2),
                lambda: disjoint_lines(3, 1), lambda: common_core_lines(1, 2),
                lambda: common_core_lines(3, 1), lambda: lift(SINGLE42, -1)):
        with pytest.raises(ValueError):
            bad()


def test_independent_subsets_order_and_content():
    got = list(independent_subsets(SINGLE42, 2))
    expect = [mask_of(c) for c in combinations(range(1, 5), 2) if set(c) != {1, 2}]
    assert got == expect
    assert mask_of([1, 2]) not in got and len(got) == comb(4, 2) - 1
    assert list(independent_subsets(SINGLE42, 3)) == []
    assert list(independent_subsets(SINGLE42, 0)) == [0]
