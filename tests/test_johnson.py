"""Johnson graphs: enumeration, counting, bounds, sampling, extensions."""
from fractions import Fraction
from math import comb

import pytest
from scipy.stats import chisquare

import oracles
from helpers import random_r_family, seeded_rng
from sparsepaving import (
    BudgetExceededError,
    JohnsonGraph,
    NotStableError,
    byskov_bound,
    count_sparse_paving,
    derive_seed,
    elements_of,
    fano_triples,
    is_stable,
    johnson_graph,
    local_lym_ok,
    mask_of,
    max_stable_bound,
    sample_sparse_paving,
    shadow,
    total_sparse_paving,
)
from sparsepaving.johnson import GLAUBER_BURN_FACTOR, sample_stable_uniform

# raw stable-set counts frozen from two agreeing enumerators
STABLE_COUNTS = {
    (4, 2): 10,
    (5, 1): 6,
    (5, 2): 26,
    (6, 2): 76,
    (6, 3): 271,
    (7, 2): 232,
    (7, 3): 5596,
    (8, 2): 764,
    (8, 3): 231577,
    (8, 4): 3852576,
}

TOTALS = {0: 1, 1: 2, 2: 5, 3: 10, 4: 22, 5: 66, 6: 439, 7: 11674, 8: 4317278}


def test_vertex_order_and_adjacency():
    g = johnson_graph(4, 2)
    assert g.vertices == (3, 5, 6, 9, 10, 12)
    # {1,2} adjacent to everything except {3,4}; same for the complement pair
    assert g.adj[0] == 0b011110
    assert g.adj[5] == 0b011110


def test_pinned_preorder_j42():
    g = johnson_graph(4, 2)
    assert list(g.stable_sets()) == [
        (),
        (3,),
        (3, 12),
        (5,),
        (5, 10),
        (6,),
        (6, 9),
        (9,),
        (10,),
        (12,),
    ]


def test_enumeration_matches_powerset_oracle():
    for n in range(2, 6):
        for r in range(1, n):
            got = {
                frozenset(frozenset(elements_of(m)) for m in fam)
                for fam in johnson_graph(n, r).stable_sets()
            }
            assert got == set(oracles.all_stable_families(n, r)), (n, r)


def test_counts_match_enumeration_and_memo():
    for (n, r), expected in STABLE_COUNTS.items():
        g = johnson_graph(n, r)
        assert g.count_stable_sets() == expected, (n, r)
        if comb(n, r) <= 35:
            assert sum(1 for _ in g.stable_sets()) == expected, (n, r)


def test_totals():
    for n, expected in TOTALS.items():
        assert total_sparse_paving(n) == expected, n
    counts = count_sparse_paving(5)
    assert counts == {0: 1, 1: 6, 2: 26, 3: 26, 4: 6, 5: 1}


def test_counts_match_closed_forms():
    # J(n, 2) is the line graph of K_n, so its stable sets are the matchings
    # of K_n: the telephone numbers a(n) = a(n-1) + (n-1) a(n-2)
    tel = [1, 1]
    for n in range(2, 10):
        tel.append(tel[n - 1] + (n - 1) * tel[n - 2])
        assert johnson_graph(n, 2).count_stable_sets() == tel[n], n
    assert tel[2:] == [2, 4, 10, 26, 76, 232, 764, 2620]
    # complementing every r-set is an isomorphism J(n, r) -> J(n, n - r)
    for n in range(1, 9):
        for r in range(n // 2 + 1):
            assert (johnson_graph(n, r).count_stable_sets()
                    == johnson_graph(n, n - r).count_stable_sets()), (n, r)


def test_count_budget():
    # the default budget is C(15, 2) = 105 vertices: J(9, 3) (84) is admitted,
    # J(9, 4) (126) and J(16, 2) (120) are not
    assert johnson_graph(15, 2).vertex_count == 105
    assert johnson_graph(9, 3).vertex_count == 84
    for n, r in ((9, 4), (16, 2), (10, 5)):
        with pytest.raises(BudgetExceededError):
            johnson_graph(n, r)
    with pytest.raises(BudgetExceededError):
        count_sparse_paving(10)


def test_maximal_stable_sets_match_oracle():
    for n in range(2, 6):
        for r in range(1, n):
            got = {
                frozenset(frozenset(elements_of(m)) for m in fam)
                for fam in johnson_graph(n, r).maximal_stable_sets()
            }
            assert got == set(oracles.maximal_stable_families(n, r)), (n, r)
    mx = list(johnson_graph(5, 2).maximal_stable_sets())
    assert len(mx) == 15 and all(len(f) == 2 for f in mx)


def test_max_stable_bound_and_fano_equality():
    assert max_stable_bound(7, 3) == Fraction(35, 5) == 7
    fan = fano_triples()
    assert len(fan.masks) == 7
    assert is_stable(fan.masks, 3, 7)
    # Steiner property: every 2-subset of [7] covered exactly once
    cover = {}
    for line in fan.lines:
        for pair in [frozenset(p) for p in __import__("itertools").combinations(line, 2)]:
            cover[pair] = cover.get(pair, 0) + 1
    assert len(cover) == comb(7, 2) and set(cover.values()) == {1}
    # no stable family beats the bound anywhere in the frozen corpus
    for (n, r), _ in STABLE_COUNTS.items():
        if comb(n, r) <= 35:
            longest = max(len(f) for f in johnson_graph(n, r).stable_sets())
            assert Fraction(longest) <= max_stable_bound(n, r)


def test_byskov_values():
    assert byskov_bound(10, 3) == 36
    for k in range(1, 8):
        assert byskov_bound(k, k) == 1
    assert byskov_bound(6, 2) == 9
    # counts of size-k maximal stable sets stay within the bound
    for n, r in ((4, 2), (5, 2), (6, 2), (6, 3)):
        g = johnson_graph(n, r)
        sizes = {}
        for fam in g.maximal_stable_sets():
            sizes[len(fam)] = sizes.get(len(fam), 0) + 1
        for k, cnt in sizes.items():
            assert cnt <= byskov_bound(len(g.vertices), k), (n, r, k)


def test_shadow_matches_oracle():
    rng = seeded_rng("johnson-shadow")
    for _ in range(200):
        n = rng.randrange(2, 9)
        r = rng.randrange(1, n + 1)
        fam = random_r_family(rng, n, r, rng.randrange(0, 6))
        got = {frozenset(elements_of(m)) for m in shadow(fam)}
        sets = [frozenset(elements_of(m)) for m in fam]
        assert got == oracles.shadow_of(sets)


def test_local_lym():
    rng = seeded_rng("johnson-lym")
    for _ in range(500):
        n = rng.randrange(2, 11)
        r = rng.randrange(1, min(n, 5) + 1)
        fam = random_r_family(rng, n, r, rng.randrange(1, 8))
        assert local_lym_ok(n, r, fam), (n, r, fam)
    # exact rational content: |shadow|*C(n,r) >= |A|*C(n,r-1)
    fam = [mask_of([1, 2]), mask_of([3, 4])]
    assert len(shadow(fam)) * comb(4, 2) >= len(fam) * comb(4, 1)


def test_extension_golden_and_properties():
    g = johnson_graph(4, 2)
    res = g.maximal_extension([])
    assert res.masks == (3, 12) and res.exact
    with pytest.raises(NotStableError):
        g.maximal_extension([3, 5])
    # properties (1) and (2) on every stable set of J(5,2)
    g5 = johnson_graph(5, 2)
    for fam in g5.stable_sets():
        ext = g5.maximal_extension(fam)
        assert set(fam) <= set(ext.masks)
        assert g5.indicator_is_stable(g5.indices_of(ext.masks))
        blocked = 0
        for m in ext.masks:
            blocked |= g5.adj[g5.index[m]]
        free = (~blocked) & ((1 << len(g5.vertices)) - 1) & ~g5.indices_of(ext.masks)
        assert free == 0  # nothing addable: maximal


def test_extension_partition_property_j42():
    g = johnson_graph(4, 2)
    fams = list(g.stable_sets())
    ext = {fam: g.maximal_extension(fam).masks for fam in fams}
    for i_small in fams:
        m_small = ext[i_small]
        for i_big in fams:
            if set(i_small) <= set(i_big) <= set(m_small):
                assert ext[i_big] == m_small


def test_extension_order_key_matches_spec_rule():
    # size first, then compare sorted-descending mask lists lexicographically
    g = johnson_graph(5, 2)
    fams = list(g.stable_sets())

    def spec_key(fam):
        return (len(fam), sorted(fam, reverse=True))

    for a in fams:
        for b in fams:
            lib = g.order_key(a) < g.order_key(b)
            naive = spec_key(a) < spec_key(b)
            assert lib == naive, (a, b)


def test_extension_is_argmax_of_order():
    g = johnson_graph(4, 2)
    fams = list(g.stable_sets())
    for fam in fams:
        sup = [o for o in fams if set(fam) <= set(o)]
        best = max(sup, key=g.order_key)
        assert g.maximal_extension(fam).masks == best


@pytest.mark.parametrize("n,r", [(7, 3), (8, 4)])
def test_components_match_reference(n, r):
    g = johnson_graph(n, r)
    ref = oracles.ReferenceDraw(n, r)
    nv = len(g.vertices)
    rng = seeded_rng("johnson-components", n, r)
    split = whole = 0
    for _ in range(300):
        density = rng.random() / 4  # sparse masks split into several components
        mask = sum(1 << i for i in range(nv) if rng.random() < density)
        got = [frozenset(i for i in range(nv) if c >> i & 1) for c in g._components(mask)]
        assert got == ref.components(i for i in range(nv) if mask >> i & 1), (n, r, mask)
        split += len(got) > 1
        whole += len(got) == 1 and len(got[0]) > 1
    assert g._components((1 << nv) - 1) == [(1 << nv) - 1]
    # both cases occur: several components in order, and one that stops early
    assert split and whole, (split, whole)


def test_exact_sampler_uniform_chi2():
    # J(4,2) never reuses a draw-memo node across branches; J(6,2), whose 76
    # stable sets are the matchings of K6, does
    rng = seeded_rng("johnson-chi2")
    for n, r in [(4, 2), (6, 2)]:
        g = johnson_graph(n, r)
        counts = {fam: 0 for fam in g.stable_sets()}
        for _ in range(5000):
            counts[g.sample_stable_exact(rng)] += 1
        stat, p = chisquare(list(counts.values()))
        assert p > 1e-3, (n, r, p, counts)


@pytest.mark.parametrize("n,r", [(6, 2), (6, 3), (7, 3)])
def test_exact_sampler_matches_reference_draw(n, r):
    g = JohnsonGraph(n, r)  # fresh, so these draws build the draw memo from scratch
    ref = oracles.ReferenceDraw(n, r)
    lib_rng = seeded_rng("johnson-reference", n, r)
    ref_rng = seeded_rng("johnson-reference", n, r)
    for _ in range(300):
        got = g.sample_stable_exact(lib_rng)
        assert frozenset(frozenset(elements_of(m)) for m in got) == ref.draw(ref_rng)
    assert lib_rng.random() == ref_rng.random()
    assert g.count_stable_sets() == STABLE_COUNTS[(n, r)] == ref.count(range(len(ref.verts)))


@pytest.mark.parametrize("n,r", [(6, 2), (7, 3), (10, 4), (10, 5)])
def test_glauber_matches_reference_chain(n, r):
    # J(10,4) has 210 vertices, so about 18% of its 8-bit vertex reads are
    # rejected and read again
    g = JohnsonGraph(n, r)  # unchecked: J(10, r) is past the vertex budget
    ref = oracles.ReferenceGlauber(n, r)
    for seed in range(10):
        for burn_in in (0, 1, 7, None):
            lib_rng = seeded_rng("glauber-reference", n, r, seed)
            ref_rng = seeded_rng("glauber-reference", n, r, seed)
            steps = GLAUBER_BURN_FACTOR * comb(n, r) if burn_in is None else burn_in
            got = g.sample_stable_glauber(lib_rng, burn_in)
            assert frozenset(frozenset(elements_of(m)) for m in got) == ref.draw(ref_rng, steps)
            assert lib_rng.random() == ref_rng.random()


def test_glauber_sampler_uniform_chi2():
    # the chain's stationary law is uniform over the 10 stable sets of J(4,2)
    rng = seeded_rng("glauber-chi2")
    g = johnson_graph(4, 2)
    counts = {fam: 0 for fam in g.stable_sets()}
    for _ in range(3000):
        counts[g.sample_stable_glauber(rng)] += 1
    stat, p = chisquare(list(counts.values()))
    assert p > 1e-3, (p, counts)


def test_sampler_determinism():
    a = sample_stable_uniform(6, 3, seed=41)
    b = sample_stable_uniform(6, 3, seed=41)
    assert a == b and a.exact and a.method == "exact-count"
    c = sample_stable_uniform(6, 3, seed=42)
    assert a != c or a.masks == c.masks  # different seed may coincide, object equality not required
    g = johnson_graph(6, 3)
    assert g.indicator_is_stable(g.indices_of(a.masks))


def test_glauber_sampler():
    s = sample_stable_uniform(6, 2, seed=5, force_glauber=True)
    assert not s.exact and s.method == "glauber"
    g = johnson_graph(6, 2)
    assert g.indicator_is_stable(g.indices_of(s.masks))
    s2 = sample_stable_uniform(6, 2, seed=5, force_glauber=True)
    assert s == s2
    assert sample_stable_uniform(6, 2, seed=5, force_glauber=True, burn_in=0).masks == ()
    with pytest.raises(ValueError):
        sample_stable_uniform(6, 2, seed=5, force_glauber=True, burn_in=-5)
    with pytest.raises(ValueError):
        sample_stable_uniform(6, 2, seed=5, burn_in=-5)  # the exact path checks it too


def test_exact_sampler_refused_past_the_vertex_budget():
    # J(10, 4) has 210 vertices: no exact draw, and no silent Glauber one
    with pytest.raises(BudgetExceededError):
        sample_stable_uniform(10, 4, seed=1)
    forced = sample_stable_uniform(10, 4, seed=1, force_glauber=True, burn_in=0)
    assert forced.masks == () and not forced.exact and forced.method == "glauber"


def test_sample_sparse_paving_rank_marginal():
    # n = 5: ranks weighted 1,6,26,26,6,1 out of 66
    draws = 3000
    weights = count_sparse_paving(5)
    total = total_sparse_paving(5)
    seen = {r: 0 for r in range(6)}
    for i in range(draws):
        m = sample_sparse_paving(5, derive_seed("marginal", i))
        seen[m.r] += 1
    expected = [draws * weights[r] / total for r in range(6)]
    # pool ranks 0 and 5 with neighbors to keep expected counts above 5
    obs = [seen[0] + seen[1], seen[2], seen[3], seen[4] + seen[5]]
    exp = [expected[0] + expected[1], expected[2], expected[3], expected[4] + expected[5]]
    stat, p = chisquare(obs, exp)
    assert p > 1e-3, (p, seen)


def test_sample_sparse_paving_returns_valid_matroids():
    for i in range(50):
        m = sample_sparse_paving(7, derive_seed("valid", i))
        assert 0 <= m.r <= 7
        if m.nonbases:
            assert is_stable(m.nonbases, m.r, m.n)


def test_derive_seed_stability():
    assert derive_seed("a", 1) == derive_seed("a", 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)
    assert derive_seed() == derive_seed()


def test_fano_is_frozen_structure():
    assert sorted(sorted(line) for line in fano_triples().lines) == [
        [1, 2, 3],
        [1, 4, 5],
        [1, 6, 7],
        [2, 4, 6],
        [2, 5, 7],
        [3, 4, 7],
        [3, 5, 6],
    ]
