"""Command line front end.

Subcommands: verify, count, minor-census, nonbasis-bound.  Tables go to
stdout (CSV by default, JSON with --format json) and are byte-reproducible
from the flags and seed; progress and wall time go to stderr.  Exit codes:
0 success, 1 invariant violation, 2 usage error, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import sys
import time

from . import census, johnson
from .errors import (
    BudgetExceededError,
    MatroidFileError,
    PavingError,
    UnknownTargetError,
)


def _at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


def _n_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n list {text!r}; use e.g. 6,7,8")
    if not values:
        raise argparse.ArgumentTypeError("empty n list")
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"n list {text!r} has a ground set size below 1")
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sparsepaving",
        description="sparse paving matroid census toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("verify", help="run the exhaustive bound suite for n <= n_max")
    sp.add_argument("--n", type=_at_least(0), default=6, help="largest ground set size")
    add_format(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("count", help="table of s_{n,r} for one n")
    sp.add_argument("--n", type=_at_least(0), required=True)
    sp.add_argument("--budget", type=_at_least(0), default=johnson.DEFAULT_VERTEX_BUDGET,
                    help="largest Johnson graph vertex count to accept")
    add_format(sp)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("minor-census", help="fraction of matroids containing a target minor")
    sp.add_argument("--target", required=True,
                    help="u:t:k | whirl3 | disjoint:r:k | core:r:k | file:<path>")
    sp.add_argument("--n", type=_n_list, required=True, help="comma list, e.g. 6,7")
    sp.add_argument("--samples", type=_at_least(0), default=0,
                    help="0 = exhaustive over S_n (small n), else sample count")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_at_least(0), default=census.EXHAUSTIVE_POP_CAP,
                    help="largest exhaustive population to accept")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--exact", dest="exact", action="store_true",
                      help="decide with the exhaustive minor search (default)")
    mode.add_argument("--fast", dest="exact", action="store_false",
                      help="same complete search; kept only as the 'fast' mode label")
    sp.set_defaults(exact=True)
    add_format(sp)
    sp.set_defaults(func=cmd_minor_census)

    sp = sub.add_parser("nonbasis-bound", help="|C(M)| against the C(n,r)/(4n) landmark")
    sp.add_argument("--n", type=_n_list, required=True, help="comma list, e.g. 5,6")
    sp.add_argument("--samples", type=_at_least(0), default=0,
                    help="0 = exhaustive over S_n (small n), else sample count")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_at_least(0), default=census.EXHAUSTIVE_POP_CAP)
    add_format(sp)
    sp.set_defaults(func=cmd_nonbasis_bound)

    return p


def _emit(rows, fields, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(census.rows_to_json(rows, fields))
    else:
        sys.stdout.write(census.rows_to_csv(rows, fields))


def cmd_verify(args) -> int:
    rows = census.verify_rows(args.n)
    _emit(rows, census.VERIFY_FIELDS, args.format)
    bad = [row for row in rows if not row["ok"]]
    if bad:
        first = bad[0]
        print(
            f"verify: FAIL {first['check']} at n={first['n']} r={first['r']}"
            f" ({first['detail']})",
            file=sys.stderr,
        )
        return 1
    print(f"verify: PASS ({len(rows)} checks)", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    rows = census.count_rows(args.n, args.budget)
    _emit(rows, census.COUNT_FIELDS, args.format)
    return 0


def cmd_minor_census(args) -> int:
    name, target = census.parse_target(args.target)
    t0 = time.perf_counter()
    rows = census.minor_census_rows(
        name, target, args.n, args.samples, args.seed, exact=args.exact, cap=args.budget
    )
    _emit(rows, census.MINOR_FIELDS, args.format)
    print(f"minor-census: runtime_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return 0


def cmd_nonbasis_bound(args) -> int:
    t0 = time.perf_counter()
    rows = census.nonbasis_bound_rows(args.n, args.samples, args.seed, cap=args.budget)
    _emit(rows, census.NONBASIS_FIELDS, args.format)
    print(f"nonbasis-bound: runtime_s={time.perf_counter() - t0:.3f}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownTargetError, MatroidFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PavingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
