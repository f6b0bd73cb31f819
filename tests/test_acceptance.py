"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Each test covers one headline guarantee at its stated tolerance; exact
criteria use integer or Fraction comparisons throughout.  Run with
`pytest -v tests/test_acceptance.py -s` to see the summary lines inline.
"""
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb

import oracles
from golden_defs import ABUNDANCE_FIELDS, heavy_tables, light_tables
from helpers import cli_env, greedy_valid_coloring, random_r_family, seeded_rng
from sparsepaving import (
    LineStructure,
    NoBasisError,
    NotStableError,
    byskov_bound,
    common_core_lines,
    contains_line_structure,
    count_sparse_paving,
    derive_seed,
    disjoint_lines,
    elements_of,
    ex_density,
    fano_triples,
    fort_refine,
    has_minor,
    has_uniform_minor,
    is_fort,
    is_moat,
    johnson_graph,
    lift,
    local_lym_ok,
    make_sparse_paving,
    mask_of,
    max_stable_bound,
    moat_interior,
    polychromatic_subset,
    replace_moat_interior,
    sample_sparse_paving,
    total_sparse_paving,
    uniform,
    verify_matroid_axioms,
    whirl3,
)
from sparsepaving import census
from sparsepaving.johnson import sample_stable_uniform

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
FANO = make_sparse_paving(7, 3, fano_triples())


def announce(num: int, ok: bool, label: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[PRIMARY {num:02d}] {verdict} - {label}")
    assert ok, f"criterion {num}: {label}"


def test_criterion_01_matroid_validity_oracle():
    ok = True
    for n in range(1, 8):
        for m in oracles.iter_all_matroids(n):
            if not verify_matroid_axioms(m.bases()):
                ok = False
    # independent literal frozenset exchange oracle
    for n in range(1, 6):
        for m in oracles.iter_all_matroids(n):
            bases = oracles.bases_of(m.n, m.r, [set(elements_of(c)) for c in m.nonbases])
            if not oracles.exchange_ok(bases):
                ok = False
    rng = seeded_rng("acc-exchange")
    for i in range(300):
        n = rng.choice((6, 7))
        m, _ = sample_sparse_paving(n, derive_seed("acc-exchange", i))
        bases = oracles.bases_of(m.n, m.r, [set(elements_of(c)) for c in m.nonbases])
        if not oracles.exchange_ok(bases):
            ok = False
    # non-stable family rejection
    rejected = 0
    for i in range(200):
        rng2 = seeded_rng("acc-reject", i)
        n = rng2.randrange(4, 8)
        r = rng2.randrange(2, n - 1)
        base = sorted(rng2.sample(range(1, n + 1), r))
        swap_out = rng2.choice(base)
        swap_in = rng2.choice([e for e in range(1, n + 1) if e not in base])
        other = sorted(set(base) - {swap_out} | {swap_in})
        fam = [mask_of(base), mask_of(other)] + random_r_family(rng2, n, r, 2)
        try:
            make_sparse_paving(n, r, set(fam))
        except NotStableError:
            rejected += 1
    ok = ok and rejected == 200
    announce(1, ok, "every stable set of J(n,r), n<=7, passes basis exchange; "
                    "non-stable families rejected")


def test_criterion_02_exact_counts_and_graham_sloane():
    ok = True
    for n in range(1, 8):
        counts = count_sparse_paving(n)
        for r in range(n + 1):
            if r in (0, n):
                ok = ok and counts[r] == 1
                continue
            streamed = sum(1 for _ in johnson_graph(n, r).stable_sets())
            ok = ok and streamed == counts[r]
            if n <= 5:
                naive = len(oracles.all_stable_families(n, r))
                ok = ok and naive == counts[r]
    for n in range(2, 8):
        total = total_sparse_paving(n)
        ok = ok and total**n > 2 ** comb(n, n // 2)
    announce(2, ok, "two enumerators agree on s_{n,r} for n<=7 (naive n<=5); "
                    "Graham-Sloane lower bound holds for n in 2..7")


def test_criterion_03_bound_suite_and_steiner_equality():
    rows = census.verify_rows(7)
    ok = bool(rows) and all(row["ok"] for row in rows)
    # equality witness: the triple system attains C(7,3)/(7+1-3) = 7
    bound = max_stable_bound(7, 3)
    ok = ok and bound == 7 and len(fano_triples().masks) == 7
    ok = ok and verify_matroid_axioms(FANO.bases())
    longest = max(len(f) for f in johnson_graph(7, 3).stable_sets())
    ok = ok and Fraction(longest) == bound
    announce(3, ok, "max-stable, Byskov, and local-LYM bounds hold exhaustively "
                    "for n<=7; Steiner triples attain the bound at (7,3)")


def test_criterion_04_local_lym():
    ok = True
    corpus = [
        [mask_of([1, 2])],
        [mask_of([1, 2]), mask_of([3, 4])],
        list(fano_triples().masks),
        list(whirl3().nonbases),
        [mask_of(range(1, 6))],
    ]
    params = [(4, 2), (4, 2), (7, 3), (6, 3), (10, 5)]
    for fam, (n, r) in zip(corpus, params):
        ok = ok and local_lym_ok(n, r, fam)
    for i in range(10_000):
        rng = seeded_rng("acc-lym", i)
        n = rng.randrange(2, 11)
        r = rng.randrange(1, min(n, 5) + 1)
        fam = random_r_family(rng, n, r, rng.randrange(1, 9))
        ok = ok and local_lym_ok(n, r, fam)
    announce(4, ok, "local LYM inequality exact on corpus plus 10^4 seeded "
                    "families with n<=10, r<=5")


def test_criterion_05_extension_partition_property():
    ok = True
    for n, r in ((4, 2), (5, 2)):
        g = johnson_graph(n, r)
        fams = list(g.stable_sets())
        ext = {fam: g.maximal_extension(fam).masks for fam in fams}
        for small in fams:
            target = ext[small]
            for mid in fams:
                if set(small) <= set(mid) <= set(target):
                    ok = ok and ext[mid] == target
    announce(5, ok, "maximal extension is constant between I and m'(I) on "
                    "J(4,2) and J(5,2), exhaustively")


def test_criterion_06_minor_machinery():
    targets = [uniform(2, 4), whirl3(), disjoint_lines(2, 2), common_core_lines(3, 2)]
    ok = True
    for n in range(1, 8):
        for m in oracles.iter_all_matroids(n):
            fast = has_uniform_minor(m, 2, 4)
            slow = has_minor(m, uniform(2, 4)) if (m.r >= 2 and m.n >= 4) else None
            ok = ok and (fast is None) == (slow is None)
            for h in targets:
                minor = m.r >= h.r and m.n >= h.n and has_minor(m, h) is not None
                ok = ok and minor == oracles.clean_copy_scout_hit(m, h)
    for h in targets:
        for d in (1, 2):
            ok = ok and has_minor(lift(h, d), h) is not None
    announce(6, ok, "clean copies and minors coincide on S_n, n<=7, for four targets; "
                    "uniform shortcut matches the general search; lifts contain "
                    "their base")


def _empty_moat_replacement_ok(m, seed) -> bool:
    for size in range(max(m.r, 1), m.n + 1):
        for xs in combinations(range(1, m.n + 1), size):
            x = mask_of(xs)
            if not is_moat(m, x) or moat_interior(m, x):
                continue
            relabel = dict(enumerate(sorted(xs), start=1))
            if size > m.r:
                fam = sample_stable_uniform(size, m.r, derive_seed(seed, x)).masks
            else:
                fam = (mask_of(range(1, size + 1)),) if size == m.r else ()
            lines = [{relabel[e] for e in elements_of(c)} for c in fam]
            try:
                swapped = replace_moat_interior(m, x, lines)
            except NoBasisError:
                continue  # stability held; the fill just left no basis at all
            if not verify_matroid_axioms(swapped.bases()):
                return False
    return True


def test_criterion_07_structures():
    ok = True
    for i in range(1000):
        rng = seeded_rng("acc-poly", i)
        n = rng.randrange(5, 14)
        r = rng.randrange(2, 4)
        m = rng.randrange(r, min(n, r + 3) + 1)
        col = greedy_valid_coloring(range(1, n + 1), r, derive_seed("acc-poly", i))
        out = polychromatic_subset(range(1, n + 1), col, r, m)
        if out is None:
            continue
        seen = set()
        for s in combinations(out, r):
            c = col[frozenset(s)]
            ok = ok and c not in seen
            seen.add(c)
        ok = ok and len(out) == m
    # fort refinement pairings are injective wherever a fort is refined
    fort_cases = [(FANO, (4, 5, 6, 7), 3), (make_sparse_paving(4, 2, [{1, 3}, {2, 4}]), (1, 2), 2)]
    rng = seeded_rng("acc-fort")
    for i in range(200):
        m, _ = sample_sparse_paving(rng.choice((5, 6, 7)), derive_seed("acc-fort", i))
        if m.r < 2:
            continue
        for xs in combinations(range(1, m.n + 1), m.r):
            if is_fort(m, set(xs)):
                fort_cases.append((m, xs, m.r))
                break
    for m, xs, size in fort_cases:
        ref = fort_refine(m, set(xs), size)
        if ref is None:
            continue
        fort_mask = mask_of(xs)
        pairing = {}
        for sub in combinations(ref, m.r - 1):
            inside = mask_of(sub)
            partners = [
                (c & ~fort_mask).bit_length()
                for c in m.nonbases
                if c & inside == inside and (c & ~fort_mask).bit_count() == 1
            ]
            pairing[sub] = min(partners)
        ok = ok and len(set(pairing.values())) == len(pairing)
    # every empty moat tolerates an arbitrary stable interior
    for n in (5, 6):
        for m in oracles.iter_all_matroids(n):
            ok = ok and _empty_moat_replacement_ok(m, derive_seed("acc-moat", n))
    for i in range(150):
        m, _ = sample_sparse_paving(7, derive_seed("acc-moat7", i))
        ok = ok and _empty_moat_replacement_ok(m, derive_seed("acc-moat7", i))
    announce(7, ok, "polychromatic outputs all-distinct on 10^3 colorings; fort "
                    "pairings injective; empty-moat interiors swap freely at n<=7")


def test_criterion_08_extremal():
    ok = True
    single2 = LineStructure.build(2, [0b11])
    single3 = LineStructure.build(3, [0b111])
    for n in range(4, 9):
        ok = ok and ex_density(n, 2, single2).best_count == 0
    for n in range(6, 9):
        ok = ok and ex_density(n, 3, single3).best_count == 0
    pairs = [
        (6, 2, single2, disjoint_lines(2, 2).structure),
        (8, 2, disjoint_lines(2, 2).structure, disjoint_lines(2, 4).structure),
        (6, 3, single3, disjoint_lines(3, 2).structure),
    ]
    for n, r, small, double in pairs:
        lo = ex_density(n, r, small)
        hi = ex_density(n, r, double)
        ok = ok and lo.exact and hi.exact and lo.best_count <= hi.best_count
    for n, r, pattern in (
        (5, 2, disjoint_lines(2, 2).structure),
        (6, 2, disjoint_lines(2, 2).structure),
        (6, 2, disjoint_lines(2, 3).structure),
        (6, 3, disjoint_lines(3, 2).structure),
    ):
        fams = (
            oracles.stable_families_pruned(n, r)
            if comb(n, r) > 15
            else oracles.all_stable_families(n, r)
        )
        naive = 0
        for fam in fams:
            masks = [mask_of(s) for s in fam]
            if contains_line_structure(masks, pattern) is None:
                naive = max(naive, len(masks))
        res = ex_density(n, r, pattern)
        ok = ok and res.exact and res.best_count == naive
    announce(8, ok, "single-line density is 0 for n<=8; doubling the pattern "
                    "never shrinks ex; branch-and-bound matches naive for n<=6")


def test_criterion_09_census_trends_and_pinned_tables():
    ok = True
    names = []
    rows_by_name = {}
    for name, text in list(light_tables()) + list(heavy_tables()):
        names.append(name)
        golden = (GOLDEN_DIR / name).read_text(encoding="ascii")
        ok = ok and text == golden
        rows_by_name[name] = text
    minor = rows_by_name["minor_census_u24.csv"].splitlines()
    fracs = [float(line.split(",")[7]) for line in minor[1:]]
    ok = ok and fracs == sorted(fracs) and len(fracs) == 3
    nb = rows_by_name["nonbasis_bound.csv"].splitlines()
    header = nb[0].split(",")
    col = header.index("frac_ge_1_float")
    ge1 = [float(line.split(",")[col]) for line in nb[1:]]
    ok = ok and ge1 == sorted(ge1) and len(ge1) == 3
    exact_col = header.index("exact_draws")
    ok = ok and all(line.split(",")[exact_col] == "true" for line in nb[1:])
    announce(9, ok, "pinned census tables reproduce byte-identically; U_{2,4} "
                    "minor fraction and the non-basis landmark fraction are "
                    "non-decreasing over n in {6,7,8}")


def test_criterion_10_cli_byte_determinism():
    invocations = [
        ["verify", "--n", "5"],
        ["count", "--n", "6"],
        ["count", "--n", "5", "--format", "json"],
        ["minor-census", "--target", "u:2:4", "--n", "6", "--samples", "25", "--seed", "11"],
        ["nonbasis-bound", "--n", "5,6", "--samples", "25", "--seed", "11"],
    ]
    ok = True
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "sparsepaving.cli", *args],
                capture_output=True,
                text=True,
                env=cli_env(),
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout and bool(runs[0].stdout)
    announce(10, ok, "every CLI invocation with fixed flags and seed emits "
                     "byte-identical tables across runs")
