"""Rebuild the frozen tables in tests/golden/, or check them.

Run as `python3 tests/regen_golden.py` to write every table, or as
`python3 tests/regen_golden.py --check` to recompute every table, write
nothing, and exit 1 naming each file whose bytes differ (a missing file
differs).  The heavy tables draw 10^4 seeded samples at n = 8 and walk
all of S_8 (building the S_8-orbits of J(8,3) and J(8,4) once), about
15 s in all on one core; everything is reproduced byte-identically from
the constants in golden_defs.py.  The checkout's src/ goes first on the
path, so the script runs from a checkout that is not installed.
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from golden_defs import all_tables  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the files instead of writing them")
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(__file__).resolve().parent / "golden"
    if not args.check:
        out_dir.mkdir(exist_ok=True)
    differ = []
    gen = all_tables()
    while True:
        t0 = time.perf_counter()
        try:
            name, text = next(gen)  # the computation happens here
        except StopIteration:
            break
        path = out_dir / name
        if args.check:
            same = path.is_file() and path.read_text(encoding="ascii") == text
            if not same:
                differ.append(name)
            verdict = "same" if same else "DIFFERS"
            print(f"{verdict} {name} ({time.perf_counter() - t0:.2f}s)")
        else:
            path.write_text(text, encoding="ascii")
            print(f"wrote {name} ({time.perf_counter() - t0:.2f}s)")
    if differ:
        print(f"golden bytes differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
