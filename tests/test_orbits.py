"""S_n-orbits of stable sets, and the exhaustive censuses that walk them.

Every exhaustive table walks one representative per S_n-orbit, weighted
by n!/|Aut|.  These tests check the orbits by brute force over S_n and
check that each table built on them equals, byte for byte, the table
built on every labelled member (oracles.iter_all_matroids).
"""
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import comb, factorial, prod

import pytest

import oracles
from helpers import cli_env
from sparsepaving import (
    JohnsonGraph,
    common_core_lines,
    disjoint_lines,
    elements_of,
    fano_triples,
    has_minor,
    johnson_graph,
    make_sparse_paving,
    mask_of,
    uniform,
    whirl3,
)
from sparsepaving import johnson
from sparsepaving.census import (
    MINOR_FIELDS,
    NONBASIS_FIELDS,
    VERIFY_FIELDS,
    minor_census_rows,
    nonbasis_bound_rows,
    rows_to_csv,
    verify_rows,
)
from sparsepaving.extremal import abundance_trend

SMALL = [(n, r) for n in range(1, 8) for r in range(n + 1)]


def as_sets(masks):
    return frozenset(frozenset(elements_of(m)) for m in masks)


def brute_images(n, family):
    """How many of the n! relabellings send a family of subsets of [n] to each image."""
    out = Counter()
    for perm in permutations(range(1, n + 1)):
        image = dict(zip(range(1, n + 1), perm))
        out[frozenset(frozenset(image[e] for e in s) for s in family)] += 1
    return out


def canonical_cases():
    """(n, masks): each orbit representative of n <= 6, Fano in [7] and [8], empty families."""
    for n, r in SMALL:
        if n <= 6:
            for masks, _, _ in johnson_graph(n, r).orbits():
                yield n, masks
    for n in (7, 8):
        yield n, fano_triples().masks
    for n in range(7):
        yield n, ()


def test_canonical_form_against_brute_force():
    rng = random.Random(17)
    fano_auts = []
    for n, masks in canonical_cases():
        form, aut, _ = johnson._canonical_form(n, masks)
        fam = as_sets(masks)
        images = brute_images(n, fam)
        assert aut == images[fam], (n, masks)  # |Aut|: the relabellings that fix the family
        assert as_sets(form) in images and tuple(sorted(form)) == form, (n, masks)
        if not masks:
            assert form == () and aut == factorial(n)
        if masks == fano_triples().masks:
            fano_auts.append(aut)
        for _ in range(5):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            moved = [mask_of({perm[e - 1] for e in s}, n) for s in fam]
            rng.shuffle(moved)
            assert johnson._canonical_form(n, moved)[:2] == (form, aut), (n, masks, perm)
    assert fano_auts == [168, 168]


def relabel(n, masks, rng):
    """The family under a random permutation of [n], members in random order."""
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [sum(1 << perm[e] for e in range(n) if m >> e & 1) for m in masks]
    rng.shuffle(moved)
    return moved


def test_canonical_form_equals_reference():
    # the pruned search against the walk of every leaf, on each orbit of n <= 8
    rng = random.Random(29)
    cases = 0
    for n in range(1, 9):
        for r in range(n + 1):
            for masks, _, _ in johnson_graph(n, r).orbits():
                for fam in (masks, relabel(n, masks, rng), relabel(n, masks, rng)):
                    form, aut, _ = johnson._canonical_form(n, fam)
                    assert (form, aut) == oracles.reference_canonical_form(n, fam), (n, fam)
                    cases += 1
    assert cases == 3 * 461  # 109 orbits of J(n, r) for n <= 7, 352 for n = 8


def group_order(n, gens):
    """The number of permutations of [n] that gens generate, by closing under them."""
    seen = {tuple(range(n))}
    todo = list(seen)
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return len(seen)


def test_canonical_generators_generate_aut():
    for n, r in SMALL:
        for masks, _, _ in johnson_graph(n, r).orbits():
            form, aut, gens = johnson._canonical_form(n, masks)
            image = set(form)
            for g in gens:  # each fixes the form
                assert {sum(1 << g[e] for e in range(n) if m >> e & 1) for m in form} == image
            assert group_order(n, gens) == aut, (n, masks)


def test_grown_orbits_equal_reference():
    # one extension per Aut-orbit of admissible vertices gives the tuple of
    # trying every admissible vertex: representatives, weights, flags, order
    for n, r in [(n, r) for n in range(8) for r in range(n // 2 + 1)] + [(8, 3)]:
        assert JohnsonGraph(n, r)._grow_orbits() == oracles.reference_orbits(johnson_graph(n, r)), (n, r)


def test_j15_2_orbits_are_matchings():
    # the stable sets of J(n, 2) are the matchings of K_n: the orbit of j
    # disjoint pairs has C(15, 2j) (2j - 1)!! members; no stable set is counted
    got = johnson_graph(15, 2).orbits()
    weights = [comb(15, 2 * j) * prod(range(1, 2 * j, 2)) for j in range(8)]
    assert [(len(masks), w) for masks, w, _ in got] == list(zip(range(8), weights))
    assert [maximal for _, _, maximal in got] == [False] * 7 + [True]
    assert sum(weights) == 10_349_536
    pairs = [3 << 2 * i for i in range(7)]
    assert johnson._canonical_form(15, pairs)[1] == 645_120  # 2^7 7! on the pairs, 1! off them


def test_s8_orbits_by_rank():
    ranks = Counter()
    total = 0
    for m, weight in johnson._orbit_members(8):
        ranks[m.r] += 1
        total += weight
    assert [ranks[r] for r in range(9)] == [1, 2, 5, 32, 270, 32, 5, 2, 1]
    assert sum(ranks.values()) == 350 and total == 4_317_278


def test_binary_exactly_when_no_u24_minor():
    # Tutte: a matroid is binary if and only if it has no U_{2,4} minor
    u24 = uniform(2, 4)
    binary_weight = []
    for n in range(1, 9):
        weight_sum = 0
        for m, weight in johnson._orbit_members(n):
            # a U_{2,4} minor needs rank and corank at least 2
            free = m.r < 2 or m.n - m.r < 2 or has_minor(m, u24) is None
            assert oracles.is_binary(m) == free, (n, m)
            weight_sum += weight if free else 0
        binary_weight.append(weight_sum)
    assert binary_weight == [2, 5, 10, 21, 44, 76, 78, 50]


def test_orbit_witnesses_equal_reference():
    # has_minor decides a window by membership in the copy set; its witness
    # must be the direct walk's on one member of every orbit for n <= 8
    hits = []
    for h in (whirl3(), disjoint_lines(3, 2), common_core_lines(3, 3)):
        found = 0
        for n in range(h.n, 9):
            for m, _ in johnson._orbit_members(n):
                if m.r >= h.r:
                    w = has_minor(m, h)
                    assert w == oracles.reference_first_minor(m, h), (m, h)
                    found += w is not None
        hits.append(found)
    assert hits == [291, 237, 62]


def test_orbit_weights_sum_to_counts():
    for n, r in SMALL + [(8, 3), (8, 4)]:
        g = johnson_graph(n, r)
        assert sum(w for _, w, _ in g.orbits()) == g.count_stable_sets(), (n, r)
        assert all(factorial(n) % w == 0 for _, w, _ in g.orbits()), (n, r)
    j84 = johnson_graph(8, 4)
    assert len(j84.orbits()) == 270 and j84.count_stable_sets() == 3_852_576


def test_orbit_representatives_pairwise_non_isomorphic():
    for n, r in SMALL:
        seen = set()
        for masks, weight, _ in johnson_graph(n, r).orbits():
            fam = as_sets(masks)
            assert oracles.is_stable_family(fam, r), (n, r, masks)
            orbit = brute_images(n, fam)
            assert len(orbit) == weight, (n, r, masks)  # n!/|Aut| is the orbit size
            assert fam not in seen, (n, r, masks)  # no earlier orbit holds it
            seen |= orbit.keys()


def test_orbit_maximal_flag_brute_force():
    for n, r in SMALL:
        verts = oracles.r_subsets(n, r)
        for masks, _, maximal in johnson_graph(n, r).orbits():
            fam = list(as_sets(masks))
            extendable = any(
                v not in fam and oracles.is_stable_family(fam + [v], r) for v in verts
            )
            assert maximal == (not extendable), (n, r, masks)


def test_orbit_order_pinned_and_dual():
    assert johnson_graph(4, 2).orbits() == (
        ((), 1, False),
        ((12,), 6, False),
        ((3, 12), 3, True),
    )
    # 2r > n: the complements of the orbits of J(n, n - r), in the same order
    for n, r in ((5, 3), (6, 4), (7, 4), (7, 5)):
        full = (1 << n) - 1
        dual = johnson_graph(n, n - r).orbits()
        got = johnson_graph(n, r).orbits()
        assert [(tuple(sorted(full ^ m for m in masks)), w, mx) for masks, w, mx in dual] == list(got)
        # grown directly, J(n, r) has the same orbits under other representatives
        direct = JohnsonGraph(n, r)._grow_orbits()
        assert sorted(w for _, w, _ in direct) == sorted(w for _, w, _ in got)
        assert {johnson._canonical_form(n, m)[:2] for m, _, _ in direct} == {
            johnson._canonical_form(n, m)[:2] for m, _, _ in got
        }


def test_orbits_built_lazily():
    probe = (
        "import sparsepaving.johnson as j\n"
        "j.count_sparse_paving(7)\n"
        "print(sorted(k for k, g in j._GRAPHS.items() if g._orbits is not None))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_exhaustive_walks_count_nothing():
    # the converse: verify and an exhaustive census read only the orbits
    probe = (
        "import sparsepaving.johnson as j\n"
        "from sparsepaving import census, uniform\n"
        "census.verify_rows(7)\n"
        "census.minor_census_rows('u:2:4', uniform(2, 4), [6, 7], 0, 0)\n"
        "print(sorted(k for k, g in j._GRAPHS.items() if g._count_memo or g._total is not None))\n"
        "print(sum(g._orbits is not None for g in j._GRAPHS.values()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n21\n"  # J(n, r) for 0 < r < n <= 7


# -- orbit tables against labelled tables --------------------------------------------


@pytest.fixture
def labelled(monkeypatch):
    """Switch exhaustive walks to every labelled member with weight 1."""

    def members(n):
        return ((m, 1) for m in oracles.iter_all_matroids(n))

    def orbits(g):
        maximal = set(g.maximal_stable_sets())
        return tuple((fam, 1, fam in maximal) for fam in g.stable_sets())

    def switch():
        monkeypatch.setattr(johnson, "_orbit_members", members)
        monkeypatch.setattr(JohnsonGraph, "orbits", orbits)

    return switch


@pytest.mark.parametrize("name, target", [
    ("u:1:2", uniform(1, 2)),
    ("u:2:4", uniform(2, 4)),
    ("whirl3", whirl3()),
    ("disjoint:3:2", disjoint_lines(3, 2)),
])
def test_orbit_minor_census_equals_labelled(labelled, name, target):
    orbit_rows = minor_census_rows(name, target, [5, 6, 7], samples=0, seed=0)
    labelled()
    labelled_rows = minor_census_rows(name, target, [5, 6, 7], samples=0, seed=0)
    assert orbit_rows == labelled_rows
    assert rows_to_csv(orbit_rows, MINOR_FIELDS) == rows_to_csv(labelled_rows, MINOR_FIELDS)


def test_orbit_nonbasis_bound_equals_labelled(labelled):
    orbit_rows = nonbasis_bound_rows([5, 6, 7], samples=0, seed=0)
    labelled()
    labelled_rows = nonbasis_bound_rows([5, 6, 7], samples=0, seed=0)
    assert rows_to_csv(orbit_rows, NONBASIS_FIELDS) == rows_to_csv(labelled_rows, NONBASIS_FIELDS)


@pytest.mark.parametrize("h, m", [
    (make_sparse_paving(4, 2, [{1, 2}]), 1),
    (make_sparse_paving(4, 2, [{1, 2}, {3, 4}]), 2),
])
def test_orbit_abundance_equals_labelled(labelled, h, m):
    orbit_rows = abundance_trend(h, [5, 6], m=m, samples=0, seed=0)
    labelled()
    labelled_rows = abundance_trend(h, [5, 6], m=m, samples=0, seed=0)
    assert rows_to_csv(orbit_rows) == rows_to_csv(labelled_rows)


def test_orbit_abundance_takes_full_pool():
    # every independent set is tried as the contraction: a clean U_{2,4}
    # is a U_{2,4} minor, so its hits are the census's 363/439
    full = abundance_trend(uniform(2, 4), [6], m=1, samples=0, seed=0)
    assert full[0]["clean_hits"] == 363 and full[0]["samples"] == 439


def test_orbit_verify_equals_labelled(labelled):
    orbit_rows = verify_rows(6)
    labelled()
    labelled_rows = verify_rows(6)
    assert rows_to_csv(orbit_rows, VERIFY_FIELDS) == rows_to_csv(labelled_rows, VERIFY_FIELDS)
