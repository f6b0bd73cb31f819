"""One cold run of one benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1

Prints one JSON line: setup_s, wall_s, members (population members drawn or
enumerated and then decided), peak_rss_mb, attempted/failed checks and,
with --trace 1, the per-layer metrics.  The clock starts before the
library is imported, so setup_s covers the import, the Johnson graphs and
the exact counts the workload needs; wall_s ends after the last check.
"""
import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from math import comb
from pathlib import Path

T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sparsepaving import census, core, extremal, johnson, minors  # noqa: E402
from sparsepaving.bits import elements_of  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
DEFAULT_SEED = 0
SAMPLED_DRAWS = 1000  # per table on sampled-n8
GLAUBER_DRAWS = 100  # per rank on glauber-n10
ABUNDANCE_SEED = 7  # the seed of tests/golden/abundance_single.csv
ABUNDANCE_SAMPLES = 60

# Recorded from the library at the commit that added this benchmark.
# sha256 of the sampled-n8 tables at DEFAULT_SEED, without the ext_* columns of
# the non-basis table: ROADMAP item 2 changes those on purpose (exact m'(I) at n = 8).
SAMPLED_DIGEST = "97e5ed9d42eaaaaabe28484770fd64f90c6a55e3599c91afeed2f8438776f53c"
WHIRL3_EXACT_HITS = {6: 120, 7: 8400}
EX_BEST = {"disjoint:3:2": 7, "whirl3": 3}  # best_count of ex_density(8 or 7, 3, pattern)


def derive(seed: int, *labels) -> int:
    """Library seed for one input of a workload, derived from the benchmark seed."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def relabel(structure, n: int, rng: random.Random):
    """The line structure with its support sent into [n] by a random injection."""
    support = elements_of(structure.support)
    image = dict(zip(support, rng.sample(range(1, n + 1), len(support))))
    lines = [{image[e] for e in elements_of(m)} for m in structure.masks]
    return core.LineStructure.from_sets(structure.r, lines, n)


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="ascii")


def golden_head(name: str, rows: int) -> str:
    """Header plus the first `rows` rows of a golden table."""
    return "".join(golden(name).splitlines(keepends=True)[: rows + 1])


class Run:
    """Clock marks, population size and check results of one child."""

    def __init__(self):
        self.setup_end = None
        self.members = 0
        self.attempted = 0
        self.errors: list[str] = []

    def setup_done(self) -> None:
        self.setup_end = time.perf_counter()

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(what)


def _sampled_minor_ok(row: dict, draws: int) -> bool:
    return (
        row["population"] == draws
        and sum(row["rank_hist"].values()) == draws
        and row["frac"] * draws == row["hits"]
        and row["exact_draws"] is True
    )


def _sampled_bound_ok(row: dict, draws: int) -> bool:
    buckets = [row[k] for k in row if k.startswith("bucket_")]
    return (
        row["population"] == draws
        and sum(row["rank_hist"].values()) == draws
        and sum(buckets) == draws
        and row["frac_ge_1"] + row["frac_below_1"] == 1
        and row["exact_draws"] is True
    )


# Each part does its set-up when called and returns its work as a closure, so
# that a workload of several parts finishes every set-up before any work.


def sampled_n8(seed: int, run: Run):
    johnson.count_sparse_paving(8)
    target = minors.uniform(2, 4)

    def work():
        minor = census.minor_census_rows(
            "u:2:4", target, [8], SAMPLED_DRAWS, derive(seed, "census")
        )
        bound = census.nonbasis_bound_rows([8], SAMPLED_DRAWS, derive(seed, "nonbasis"))
        minor_text = census.rows_to_csv(minor, census.MINOR_FIELDS)
        census.rows_to_csv(bound, census.NONBASIS_FIELDS)  # rendered as the CLI prints it
        run.members += 2 * SAMPLED_DRAWS
        run.check("minor_census n=8 invariants", _sampled_minor_ok(minor[0], SAMPLED_DRAWS))
        run.check("nonbasis_bound n=8 invariants", _sampled_bound_ok(bound[0], SAMPLED_DRAWS))
        if seed == DEFAULT_SEED:
            kept = [{k: v for k, v in row.items() if not k.startswith("ext_")} for row in bound]
            fields = [f for f in census.NONBASIS_FIELDS if not f.startswith("ext_")]
            text = minor_text + census.rows_to_csv(kept, fields)
            digest = hashlib.sha256(text.encode()).hexdigest()
            run.check(f"sampled tables digest {digest}", digest == SAMPLED_DIGEST)

    return work


def exhaustive_n7(seed: int, run: Run):
    for n in range(1, 8):
        johnson.count_sparse_paving(n)
    rng = random.Random(derive(seed, "whirl3"))
    whirl = core.make_sparse_paving(6, 3, relabel(minors.whirl3().structure, 6, rng))

    def work():
        verify = census.verify_rows(7)
        run.check("verify_rows(7) all ok", all(row["ok"] for row in verify))
        small = [row for row in verify if row["n"] <= 6]
        run.check(
            "verify rows n<=6 == verify_n6.csv",
            census.rows_to_csv(small, census.VERIFY_FIELDS) == golden("verify_n6.csv"),
        )
        u24 = census.minor_census_rows(
            "u:2:4", minors.uniform(2, 4), [6, 7], 0, derive(seed, "u24")
        )
        run.check(
            "u:2:4 rows n=6,7 == minor_census_u24.csv",
            census.rows_to_csv(u24, census.MINOR_FIELDS)
            == golden_head("minor_census_u24.csv", 2),
        )
        exact = census.minor_census_rows(
            "whirl3", whirl, [6, 7], 0, derive(seed, "whirl3-exact")
        )
        fast = census.minor_census_rows(
            "whirl3", whirl, [6, 7], 0, derive(seed, "whirl3-fast"), exact=False
        )
        census.rows_to_csv(exact + fast, census.MINOR_FIELDS)  # rendered as the CLI prints it
        for e_row, f_row in zip(exact, fast):
            n = e_row["n"]
            run.check(f"whirl3 exact hits n={n}", e_row["hits"] == WHIRL3_EXACT_HITS[n])
            run.check(f"whirl3 fast hits <= exact n={n}", f_row["hits"] <= e_row["hits"])
        bound = census.nonbasis_bound_rows([6, 7], 0, derive(seed, "nonbasis"))
        run.check(
            "nonbasis rows n=6,7 == nonbasis_bound.csv",
            census.rows_to_csv(bound, census.NONBASIS_FIELDS)
            == golden_head("nonbasis_bound.csv", 2),
        )
        run.members += sum(row["population"] for row in u24 + exact + fast + bound)

    return work


def extremal_n8(seed: int, run: Run):
    johnson.johnson_graph(8, 3)
    johnson.johnson_graph(7, 3)
    johnson.count_sparse_paving(6)
    johnson.count_sparse_paving(7)
    rng = random.Random(derive(seed, "patterns"))
    searches = (
        (8, "disjoint:3:2", relabel(minors.disjoint_lines(3, 2).structure, 8, rng)),
        (7, "whirl3", relabel(minors.whirl3().structure, 7, rng)),
    )
    single = core.make_sparse_paving(4, 2, [{1, 2}])
    expected = golden("abundance_single.csv")

    def work():
        for n, name, pattern in searches:
            res = extremal.ex_density(n, 3, pattern)
            run.check(f"ex_density({n}, 3, {name}) exact, best {EX_BEST[name]}",
                      res.exact and res.best_count == EX_BEST[name])
            run.check(f"ex_density({n}, 3, {name}) witness avoids the pattern",
                      next(minors.iter_embeddings(res.witness.nonbases, pattern), None) is None)
        rows = extremal.abundance_trend(
            single, [6, 7], m=1, samples=ABUNDANCE_SAMPLES, seed=ABUNDANCE_SEED
        )
        fields = expected.splitlines()[0].split(",")
        run.check("abundance rows == abundance_single.csv",
                  census.rows_to_csv(rows, fields) == expected)
        run.members += sum(row["samples"] for row in rows)

    return work


def glauber_n10(seed: int, run: Run):
    for r in (4, 5):
        johnson.johnson_graph(10, r, comb(10, r))
    target = minors.uniform(2, 4)

    def work():
        for r in (4, 5):
            for i in range(GLAUBER_DRAWS):
                draw = johnson.sample_stable_uniform(
                    10, r, derive(seed, "glauber", r, i), force_glauber=True
                )
                stable = core.is_stable(draw.masks, r, 10)
                agrees = False
                if stable:
                    m = core.make_sparse_paving(10, r, draw.masks)
                    agrees = (minors.has_minor(m, target) is None) == (
                        minors.has_uniform_minor(m, 2, 4) is None
                    )
                run.members += 1
                run.check(f"glauber draw r={r} i={i}: stable, glauber/inexact, decision agrees",
                          stable and not draw.exact and draw.method == "glauber" and agrees)

    return work


# The two combined workloads are the ones BENCHMARK.json lists: a run of one
# covers twice the time of a part, which halves the effect of host speed drift.
WORKLOADS = {
    "sampled-n8-glauber-n10": (sampled_n8, glauber_n10),
    "exhaustive-n7-extremal-n8": (exhaustive_n7, extremal_n8),
    "sampled-n8": (sampled_n8,),
    "exhaustive-n7": (exhaustive_n7,),
    "extremal-n8": (extremal_n8,),
    "glauber-n10": (glauber_n10,),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    run = Run()
    try:
        works = [part(args.seed, run) for part in WORKLOADS[args.workload]]
        run.setup_done()
        for work in works:
            work()
    except Exception:  # a crash is a failed operation, reported with its traceback
        traceback.print_exc()
        run.attempted += 1
        run.errors.append("exception: " + traceback.format_exc().strip().splitlines()[-1])
    wall_end = time.perf_counter()
    setup_end = run.setup_end if run.setup_end is not None else wall_end
    out = {
        "setup_s": setup_end - T0,
        "wall_s": wall_end - T0,
        "members": run.members,
        "work_s": wall_end - setup_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "errors": run.errors,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, setup_end, wall_end)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
