"""Matroid file I/O, census tables, rendering, and the CLI contract."""
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import cli_env
from sparsepaving import (
    BudgetExceededError,
    MatroidFileError,
    UnknownTargetError,
    elements_of,
    fano_triples,
    make_sparse_paving,
    sample_sparse_paving,
    uniform,
    whirl3,
)
from sparsepaving import census, johnson
from sparsepaving.census import (
    COUNT_FIELDS,
    count_rows,
    format_matroid,
    minor_census_rows,
    nonbasis_bound_rows,
    parse_target,
    read_matroid,
    rows_to_csv,
    rows_to_json,
    verify_rows,
)
from sparsepaving.cli import main
from sparsepaving.extremal import abundance_trend
from oracles import iter_all_matroids

FANO = make_sparse_paving(7, 3, fano_triples())


# -- file format -------------------------------------------------------------


def test_roundtrip(tmp_path):
    for m in (whirl3(), FANO, uniform(2, 4), make_sparse_paving(3, 0, ())):
        path = tmp_path / "m.txt"
        path.write_text(format_matroid(m), encoding="ascii")
        assert read_matroid(path) == m


def test_format_matroid_layout():
    text = format_matroid(make_sparse_paving(4, 2, [{1, 2}, {3, 4}]))
    assert text == "n=4 r=2\n1 2\n3 4\n"


def test_read_with_comments_and_blanks(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# a matroid\n\nn=4 r=2  # header\n1 2\n\n3 4 # a line\n")
    m = read_matroid(path)
    assert m.n == 4 and m.r == 2 and len(m.nonbases) == 2


@pytest.mark.parametrize(
    "body",
    [
        "",
        "# only a comment\n",
        "n=4\n",
        "m=4 r=2\n",
        "n=x r=2\n",
        "n=4 r=2\n1 two\n",
        "n=4 r=2\n1 9\n",
        "n=4 r=2\n0 1\n",
        "n=4 r=2\n1 1\n",
    ],
)
def test_malformed_files(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(MatroidFileError):
        read_matroid(path)


def test_semantic_errors_pass_through(tmp_path):
    path = tmp_path / "sem.txt"
    path.write_text("n=4 r=2\n1 2\n1 3\n")  # adjacent pair: not stable
    from sparsepaving import NotStableError

    with pytest.raises(NotStableError):
        read_matroid(path)
    path.write_text("n=4 r=2\n1 2 3\n")  # wrong cardinality
    from sparsepaving import BadCardinalityError

    with pytest.raises(BadCardinalityError):
        read_matroid(path)


# -- target parsing ------------------------------------------------------------


def test_parse_target_forms(tmp_path):
    name, m = parse_target("u:2:4")
    assert name == "u:2:4" and m == uniform(2, 4)
    assert parse_target("whirl3")[1] == whirl3()
    assert parse_target("disjoint:2:2")[1].n == 4
    assert parse_target("core:3:2")[1].n == 5
    path = tmp_path / "t.txt"
    path.write_text(format_matroid(whirl3()), encoding="ascii")
    name, m = parse_target(f"file:{path}")
    assert name == f"file:{path}" and m == whirl3()


@pytest.mark.parametrize(
    "spec",
    ["nope", "u:2", "u:a:b", "disjoint:1:2", "core:1:1", "disjoint:3:1", "core:3:1",
     "file:/no/such/file", ""],
)
def test_parse_target_rejects(spec):
    with pytest.raises(UnknownTargetError):
        parse_target(spec)


# -- populations and verify ------------------------------------------------------


def test_iter_all_matroids_counts():
    mats = list(iter_all_matroids(4))
    assert len(mats) == 22
    assert [m.r for m in mats] == sorted(m.r for m in mats)
    assert all(m.n == 4 for m in mats)
    assert len(set(mats)) == 22


def test_verify_rows_vacuous_and_small():
    assert verify_rows(0) == []
    rows = verify_rows(4)
    assert rows and all(row["ok"] for row in rows)
    checks = {row["check"] for row in rows}
    assert checks == {"max-stable", "byskov", "local-lym", "graham-sloane"}
    rows8 = verify_rows(8)  # all of S_8, the largest S_n the vertex budget admits
    assert len(rows8) == 91 and all(row["ok"] for row in rows8)
    with pytest.raises(BudgetExceededError):
        verify_rows(9)


def test_verify_catches_corrupt_bound(monkeypatch, capsys):
    monkeypatch.setattr(johnson, "byskov_bound", lambda nv, k: 0)
    rows = verify_rows(3)
    bad = [row for row in rows if not row["ok"]]
    assert bad and all(row["check"] == "byskov" for row in bad)
    assert main(["verify", "--n", "3"]) == 1
    err = capsys.readouterr().err
    assert "FAIL byskov" in err


# -- rendering -------------------------------------------------------------------


def test_count_rows_golden_csv():
    got = rows_to_csv(count_rows(5), COUNT_FIELDS)
    assert got == (
        "n,r,count\n"
        "5,0,1\n"
        "5,1,6\n"
        "5,2,26\n"
        "5,3,26\n"
        "5,4,6\n"
        "5,5,1\n"
        "5,total,66\n"
    )


def test_render_fractions_hists_bools():
    rows = [{"frac": Fraction(1, 3), "hist": {2: 5, 3: 1}, "flag": True, "k": 7}]
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "frac,frac_float,hist,flag,k"
    assert csv_text.splitlines()[1] == f"1/3,{1 / 3!r},2:5;3:1,true,7"
    data = json.loads(rows_to_json(rows))
    assert data == [{"frac": "1/3", "frac_float": repr(1 / 3), "hist": "2:5;3:1", "flag": "true", "k": 7}]


def test_rows_to_json_field_filter():
    data = json.loads(rows_to_json(count_rows(4), ("n", "count")))
    assert all(set(row) == {"n", "count"} for row in data)
    assert data[-1]["count"] == 22


# -- census tables ----------------------------------------------------------------


def test_minor_census_exhaustive_golden():
    rows = minor_census_rows("u:1:2", uniform(1, 2), [5], samples=0, seed=0)
    row = rows[0]
    assert row["population"] == 66 and row["exhaustive"] and row["exact_draws"]
    assert sum(row["rank_hist"].values()) == row["population"]
    # misses are exactly the rank-0 and free matroids
    assert row["hits"] == 64 and row["frac"] == Fraction(32, 33)
    rows24 = minor_census_rows("u:2:4", uniform(2, 4), [6], samples=0, seed=0)
    assert rows24[0]["frac"] == Fraction(363, 439)


def test_minor_census_fast_mode_is_lower_bound():
    exact = minor_census_rows("whirl3", whirl3(), [6], samples=0, seed=0, exact=True)
    fast = minor_census_rows("whirl3", whirl3(), [6], samples=0, seed=0, exact=False)
    assert fast[0]["mode"] == "fast" and exact[0]["mode"] == "exact"
    assert fast[0]["hits"] <= exact[0]["hits"]
    assert fast[0]["hits"] == exact[0]["hits"] == 120  # both modes run the one search


def test_minor_census_sampled_determinism():
    a = minor_census_rows("u:2:4", uniform(2, 4), [7], samples=40, seed=9)
    b = minor_census_rows("u:2:4", uniform(2, 4), [7], samples=40, seed=9)
    assert a == b
    assert a[0]["population"] == 40 and not a[0]["exhaustive"]
    assert sum(a[0]["rank_hist"].values()) == a[0]["population"]
    assert a[0]["exact_draws"] is True
    # past the vertex budget no draw is exact, so the table is refused
    with pytest.raises(BudgetExceededError):
        minor_census_rows("u:2:4", uniform(2, 4), [10], samples=3, seed=0)


def test_population_cap():
    with pytest.raises(BudgetExceededError):
        minor_census_rows("u:2:4", uniform(2, 4), [9], samples=0, seed=0)


def test_nonbasis_bound_exhaustive_golden():
    rows = nonbasis_bound_rows([5, 6], samples=0, seed=0)
    assert rows[0]["mean_ratio"] == Fraction(100, 33)
    assert rows[0]["frac_ge_1"] == Fraction(10, 11)
    assert rows[0]["n"] == 5 and rows[1]["n"] == 6
    assert rows[1]["mean_ratio"] == Fraction(1368, 439)
    assert rows[1]["frac_ge_1"] == Fraction(432, 439)
    for row in rows:
        assert row["frac_ge_1"] + row["frac_below_1"] == 1
        assert (
            row["bucket_lt_half"]
            + row["bucket_half_to_1"]
            + row["bucket_one_to_2"]
            + row["bucket_two_to_4"]
            + row["bucket_ge_4"]
            == row["population"]
        )
        assert row["ext_exact"] is True
        assert sum(row["rank_hist"].values()) == row["population"]


def test_nonbasis_bound_n9_refused_for_every_seed(capsys):
    # J(9,4) is past the vertex budget; the table refuses before any draw,
    # whichever ranks the seed's draws would land on
    for seed in range(8):
        argv = ["nonbasis-bound", "--n", "9", "--samples", "1", "--seed", str(seed)]
        assert main(argv) == 3, seed
        assert capsys.readouterr().out == "", seed


def test_census_refused_as_a_whole(capsys):
    # n = 9 is past the vertex budget: no row is printed, not even n = 6's
    for seed in range(4):
        argv = ["minor-census", "--target", "u:2:4", "--n", "6,9", "--samples", "5",
                "--seed", str(seed)]
        assert main(argv) == 3, seed
        out, err = capsys.readouterr()
        assert out == "" and "J(9,4)" in err, seed
    with pytest.raises(BudgetExceededError):
        abundance_trend(uniform(2, 4), [9], m=1, samples=3, seed=0)


@pytest.mark.parametrize("table", [
    lambda k: minor_census_rows("u:2:4", uniform(2, 4), [6], samples=k, seed=0),
    lambda k: nonbasis_bound_rows([6], samples=k, seed=0),
    lambda k: abundance_trend(uniform(2, 4), [6], m=1, samples=k, seed=0),
], ids=["minor-census", "nonbasis-bound", "abundance"])
def test_negative_samples_rejected(table):
    with pytest.raises(ValueError):
        table(-1)


def test_nonbasis_bound_exact_extension_n8():
    rows = nonbasis_bound_rows([8], samples=5, seed=1)
    assert rows[0]["ext_exact"] is True  # m'(I) is exact on J(8,4) too
    assert sum(rows[0]["rank_hist"].values()) == rows[0]["population"] == 5


# -- CLI ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sparsepaving.cli", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )


def test_bare_import_skips_renderers():
    # the CSV/JSON renderers load with census, which a bare import does not need
    probe = "import sys, sparsepaving; print(sorted({'csv', 'json'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_count_golden(capsys):
    assert main(["count", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n,r,count\n5,0,1\n") and out.endswith("5,total,66\n")
    assert main(["count", "--n", "0"]) == 0  # s_0 = 1
    assert capsys.readouterr().out == "n,r,count\n0,0,1\n0,total,1\n"


def test_cli_json_format(capsys):
    assert main(["count", "--n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[-1] == {"n": 4, "r": "total", "count": 22}


def test_cli_verify_pass(capsys):
    assert main(["verify", "--n", "4"]) == 0
    captured = capsys.readouterr()
    assert "verify: PASS" in captured.err
    assert captured.out.startswith("check,n,r,ok,detail\n")
    assert "max-stable,1,,," not in captured.out  # (1,r) inner ranks do not exist


def test_cli_minor_census_table(capsys):
    code = main(["minor-census", "--target", "u:2:4", "--n", "6", "--samples", "0"])
    assert code == 0
    captured = capsys.readouterr()
    line = captured.out.splitlines()[1]
    assert line.startswith("u:2:4,exact,6,439,true,363,363/439,")
    assert "runtime_s=" in captured.err and "runtime_s" not in captured.out


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["minor-census", "--target", "nope", "--n", "5"]) == 2
    assert main(["count", "--n", "10"]) == 3
    assert main(["minor-census", "--target", "disjoint:3:1", "--n", "6"]) == 2
    assert main(["minor-census", "--target", "u:2:4", "--n", "9", "--samples", "0"]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("n=4 r=2\n1 2\n1 3\n")
    assert main(["minor-census", "--target", f"file:{bad}", "--n", "5"]) == 1
    missing = tmp_path / "missing.txt"
    assert main(["minor-census", "--target", f"file:{missing}", "--n", "5"]) == 2
    capsys.readouterr()


def test_count_n9_refused_fast():
    # J(9,4) has 126 vertices, past the budget: refused before any rank is counted
    proc = subprocess.run(
        [sys.executable, "-m", "sparsepaving.cli", "count", "--n", "9"],
        capture_output=True, text=True, env=cli_env(), timeout=30,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and "J(9,4)" in proc.stderr
    with pytest.raises(BudgetExceededError):
        sample_sparse_paving(9, 0)


def test_cli_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["minor-census", "--target", "u:2:4", "--n", "6", "--exact", "--fast"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["minor-census", "--target", "u:2:4", "--n", "a,b"])
    assert exc.value.code == 2
    # negative sample counts, ground sets below 1 (below 0 for count and verify)
    for argv in (
        ["minor-census", "--target", "u:2:4", "--n", "6", "--samples", "-3"],
        ["nonbasis-bound", "--n", "5", "--samples", "-2"],
        ["count", "--n", "-1"],
        ["verify", "--n", "-1"],
        ["minor-census", "--target", "u:2:4", "--n", "-1", "--samples", "3"],
        ["nonbasis-bound", "--n", "0", "--samples", "0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_cli_byte_determinism_subprocess():
    args = ["minor-census", "--target", "u:2:4", "--n", "6,7", "--samples", "30", "--seed", "5"]
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert "runtime_s" in a.stderr
    c = run_cli("nonbasis-bound", "--n", "5,6", "--samples", "20", "--seed", "3")
    d = run_cli("nonbasis-bound", "--n", "5,6", "--samples", "20", "--seed", "3")
    assert c.returncode == 0 and c.stdout == d.stdout


def test_cli_nonbasis_bound_header(capsys):
    assert main(["nonbasis-bound", "--n", "5"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.split(",")[:4] == ["n", "population", "exhaustive", "mean_ratio"]
    assert "ext_exact" in header and "rank_hist" in header
    row = out.splitlines()[1]
    assert row.startswith("5,66,true,100/33,")
