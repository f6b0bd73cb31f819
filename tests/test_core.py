"""Core types: subsets, adjacency, line structures, matroid construction."""
import subprocess
import sys

import pytest

import oracles
from helpers import cli_env, random_r_family, seeded_rng
from sparsepaving import (
    BadCardinalityError,
    LineStructure,
    NoBasisError,
    NotStableError,
    SparsePavingMatroid,
    adjacent,
    contains_line_structure,
    contract,
    elements_of,
    ex_density,
    has_minor,
    is_stable,
    johnson_graph,
    make_sparse_paving,
    mask_of,
    shadow,
    uniform,
    verify_matroid_axioms,
    whirl3,
)
from sparsepaving.johnson import sample_stable_uniform


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
    assert frozenset({1, 2, 5}) in got and frozenset({1, 2, 4}) not in got


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


def _records():
    """One instance of each of the library's eight result records."""
    pattern = LineStructure.from_sets(3, [{1, 2, 3}, {1, 4, 5}])
    m = make_sparse_paving(6, 3, pattern)
    return [
        pattern,
        m,
        sample_stable_uniform(6, 2, 7),
        johnson_graph(5, 2).maximal_extension([mask_of([1, 2])]),
        contract(m, {6}),
        contains_line_structure(m.structure, LineStructure.from_sets(3, [{1, 2, 3}])),
        has_minor(whirl3(), uniform(2, 4)),
        ex_density(4, 2, LineStructure.from_sets(2, [{1, 2}, {3, 4}])),
    ]


def test_record_contract():
    records = _records()
    assert [type(rec).__name__ for rec in records] == [
        "LineStructure", "SparsePavingMatroid", "StableSample", "ExtensionResult",
        "PavingQuotient", "Embedding", "MinorWitness", "DensityResult",
    ]
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        twin = type(rec)(*rec)
        assert twin is not rec and twin == rec and hash(twin) == hash(rec)
        assert rec == tuple(rec)  # records are tuples of their fields
        assert type(rec)._make(rec) == rec and rec._replace() == rec
        assert rec._replace(**{name: getattr(rec, name) for name in rec._fields}) == rec
    pattern, m, *_, density = records
    # len counts fields, whatever the number of lines, so _make and _replace work
    one_line = LineStructure(3, (0b111,))
    assert len(pattern) == len(one_line) == len(LineStructure(3, ())) == 2
    assert one_line._replace(r=3) == one_line == LineStructure._make([3, (0b111,)])
    assert pattern._replace(masks=(0b111,)) == one_line
    assert len(m) == 3
    assert repr(pattern) == "LineStructure(r=3, lines=[{1, 2, 3}, {1, 4, 5}])"
    assert repr(m) == "SparsePavingMatroid(n=6, r=3, nonbases=2)"
    # keyword construction as ex_density builds its result; nodes defaults to 0
    fields = dict(n=4, r=2, best_count=density.best_count, density=density.density,
                  witness=density.witness)
    assert type(density)(**fields, exact=True, nodes=density.nodes) == density
    assert type(density)(**fields, exact=True).nodes == 0


def test_nonbasis_queries_answer_alike_on_every_call():
    # bases and rank read the non-basis masks on every call; a record caches nothing
    m = make_sparse_paving(6, 3, [{1, 2, 3}, {1, 4, 5}])
    gm = oracles.GeneralMatroid.from_sparse_paving(m)
    bases = list(m.bases())
    assert bases == list(m.bases())
    assert {frozenset(elements_of(b)) for b in bases} == set(oracles.bases_of(6, 3, m.nonbasis_sets))
    for x in range(1 << 6):
        sub = frozenset(elements_of(x))
        for _ in range(2):
            assert m.rank(x) == gm.rank(sub)


def test_import_loads_no_dataclasses():
    # cold start: importing the library and its CLI pulls in neither module
    probe = (
        "import sys\n"
        "import sparsepaving, sparsepaving.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
