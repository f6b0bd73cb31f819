"""Smoke test of the benchmark itself.

Run from the repository root; it takes about a minute:

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs with --seconds 1, which is one cold child (two with
--trace 1), and must print every metric declared in BENCHMARK.json with its
unit.  Two more runs use a copy of the checkout in a temporary directory:
one with a corrupted golden row, which must fail its check, and one without
the library, which must exit non-zero without printing a result.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NO_CACHE = shutil.ignore_patterns("__pycache__")


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def copy_checkout(tmp: Path, with_library: bool) -> None:
    shutil.copytree(HERE, tmp / "perfbench", ignore=NO_CACHE)
    shutil.copy(ROOT / "BENCHMARK.json", tmp)
    if with_library:
        shutil.copytree(ROOT / "src", tmp / "src", ignore=NO_CACHE)
        shutil.copytree(ROOT / "tests" / "golden", tmp / "tests" / "golden")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert "error_rate 0 ratio" in lines


def test_corrupted_golden_row_trips_the_check():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as tmp:
        tmp = Path(tmp)
        copy_checkout(tmp, with_library=True)
        golden = tmp / "tests" / "golden" / "verify_n6.csv"
        text = golden.read_text()
        assert ",max 1 vs 1\n" in text
        golden.write_text(text.replace(",max 1 vs 1\n", ",max 2 vs 1\n", 1))
        proc = bench(tmp, "exhaustive-n7", 0)
    assert proc.returncode != 0
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(rate.split()[1]) > 0
    assert "verify rows n<=6 == verify_n6.csv" in proc.stderr


def test_without_the_library_exits_nonzero_and_prints_no_result():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-smoke-") as tmp:
        tmp = Path(tmp)
        copy_checkout(tmp, with_library=False)
        proc = bench(tmp, "glauber-n10", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
