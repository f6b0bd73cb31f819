"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sampled-n8-glauber-n10 --seed 0 --seconds 60 --trace 0

Each sample is a fresh interpreter (perfbench/child.py), the cold state a
CLI user sees; one child runs at a time.  Children repeat the same seeded
inputs until --seconds is used up, and every metric is the median over
them.  --trace 0 prints the end-to-end metrics; --trace 1 alternates plain
and traced children and prints the per-layer metrics.  The last line of
stdout is one JSON object; the exit code is 0 only when every check passed.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = (  # as in child.py; BENCHMARK.json lists the first two
    "sampled-n8-glauber-n10",
    "exhaustive-n7-extremal-n8",
    "sampled-n8",
    "exhaustive-n7",
    "extremal-n8",
    "glauber-n10",
)
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("matroids_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
RUN_DEADLINE_S = 170  # a run ends within 180 s even when a child hangs


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One fresh interpreter; a crash, a timeout or bad output is one failed operation."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1, "errors": [f"child timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1, "errors": [f"child exited {proc.returncode}"]}
    out = json.loads(lines[-1])
    out["elapsed_s"] = time.perf_counter() - started
    out["traced"] = traced
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Children until the next one would overrun --seconds; with trace, alternately plain."""
    start = time.perf_counter()
    children: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        traced = trace and len(children) % 2 == 1
        children.append(run_child(workload, seed, traced, max(1.0, RUN_DEADLINE_S - elapsed)))
        if "elapsed_s" not in children[-1]:
            break
        elapsed = time.perf_counter() - start
        typical = statistics.median(c["elapsed_s"] for c in children if "elapsed_s" in c)
        if len(children) >= (2 if trace else 1) and elapsed + typical > seconds:
            break
    return children


def median_of(children: list[dict], key) -> float:
    return statistics.median(key(c) for c in children)


def end_to_end(plain: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median_of(plain, lambda c: c["setup_s"]),
        "wall_s": median_of(plain, lambda c: c["wall_s"]),
        "matroids_per_s": median_of(
            plain, lambda c: c["members"] / c["work_s"] if c["work_s"] else 0.0
        ),
        "peak_rss_mb": median_of(plain, lambda c: c["peak_rss_mb"]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: median_of(traced, lambda c: c["layers"][name])
        for name, _, _ in PER_LAYER
        if name != "trace.overhead_s"
    }
    out["trace.overhead_s"] = (median_of(traced, lambda c: c["wall_s"])
                               - median_of(plain, lambda c: c["wall_s"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # subprocess.run kills and reaps its child on any exception, SystemExit included
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    needed = [ROOT / "src" / "sparsepaving" / "__init__.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: not a sparsepaving checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # Byte-compile once so that no child pays for it; an installed CLI does not either.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    children = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    for c in children:
        for err in c["errors"]:
            print(f"FAILED: {err}", file=sys.stderr)
    ran = [c for c in children if "elapsed_s" in c]
    plain = [c for c in ran if not c["traced"]]
    traced = [c for c in ran if c["traced"]]
    complete = bool(plain) and (bool(traced) or not args.trace)
    correct = failed == 0 and complete

    print(f"workload {args.workload}: seed {args.seed}, {len(plain)} plain and "
          f"{len(traced)} traced cold runs, median of each")
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}
    if complete:
        if args.trace:
            values, units = per_layer(plain, traced), {n: u for n, u, _ in PER_LAYER}
        else:
            values, units = end_to_end(plain), dict(END_TO_END)
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]}")
            result["metrics"][name] = {"value": value, "unit": units[name]}
    print(f"error_rate {failed / max(attempted, 1):.6g} ratio")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
