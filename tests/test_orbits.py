"""S_n-orbits of stable sets, and the exhaustive censuses that walk them.

Every exhaustive table walks one representative per S_n-orbit, weighted
by n!/|Aut|.  These tests check the orbits by brute force over S_n and
check that each table built on them equals, byte for byte, the table
built on every labelled member (oracles.iter_all_matroids).
"""
import subprocess
import sys
from itertools import permutations
from math import factorial

import pytest

import oracles
from helpers import cli_env
from sparsepaving import (
    JohnsonGraph,
    disjoint_lines,
    elements_of,
    johnson_graph,
    make_sparse_paving,
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


def brute_orbit(n, family):
    """Every image of a family of subsets of [n] under the n! relabellings."""
    out = set()
    for perm in permutations(range(1, n + 1)):
        image = dict(zip(range(1, n + 1), perm))
        out.add(frozenset(frozenset(image[e] for e in s) for s in family))
    return out


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
            orbit = brute_orbit(n, fam)
            assert len(orbit) == weight, (n, r, masks)  # n!/|Aut| is the orbit size
            assert fam not in seen, (n, r, masks)  # no earlier orbit holds it
            seen |= orbit


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
        assert {johnson._canonical_form(n, m) for m, _, _ in direct} == {
            johnson._canonical_form(n, m) for m, _, _ in got
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
