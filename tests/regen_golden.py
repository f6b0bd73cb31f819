"""Rebuild the frozen tables in tests/golden/.

Run as `python3 tests/regen_golden.py`.  The heavy tables draw 10^4 seeded
samples at n = 8 and take several seconds; everything is reproduced
byte-identically from the constants in golden_defs.py.
"""
import pathlib
import time

from golden_defs import all_tables


def main() -> None:
    out_dir = pathlib.Path(__file__).resolve().parent / "golden"
    out_dir.mkdir(exist_ok=True)
    gen = all_tables()
    while True:
        t0 = time.perf_counter()
        try:
            name, text = next(gen)  # the computation happens here
        except StopIteration:
            break
        (out_dir / name).write_text(text, encoding="ascii")
        print(f"wrote {name} ({time.perf_counter() - t0:.2f}s)")


if __name__ == "__main__":
    main()
