"""Census orchestration: verification sweeps, count tables, minor censuses.

Everything here is plumbing around the library: build row dictionaries with
exact rationals inside, render them to CSV or JSON with a fixed field order,
and keep every byte reproducible from (experiment, parameters, seed).
Wall-clock time never enters the rendered output.

Every table over a population of matroids (the minor census, the
non-basis table and extremal.abundance_trend) draws it from one
johnson.Population: all of S_n when samples == 0, otherwise that many
seeded exact uniform draws.  The vertex budget is the only admission
rule: an n past it (n >= 9) refuses the whole table before a row is
returned, and every n it admits runs, S_8 included.  An exhaustive
population is walked as one member per S_n-orbit, weighted by the
orbit's size n!/|Aut|; every cell these tables and verify_rows report is
invariant under relabelling [n], so each one sums weights where a
labelled walk would count members, and prints the same bytes.  The
Population tallies the size and the rank histogram that each row
reports; the exact_draws column is always true.
"""
from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from fractions import Fraction
from math import comb

from . import johnson
from .core import SparsePavingMatroid, make_sparse_paving
from .errors import MatroidFileError, PavingError, UnknownTargetError
from .johnson import Population, count_sparse_paving, johnson_graph, johnson_graphs
from .minors import (
    common_core_lines,
    disjoint_lines,
    has_minor,
    uniform,
    whirl3,
)

RATIO_EDGES = (Fraction(1, 2), 1, 2, 4)  # bucket edges of the non-basis ratio


# -- matroid files --------------------------------------------------------------


def read_matroid(path) -> SparsePavingMatroid:
    """Parse the one-matroid text format.

    Line 1 is `n=<int> r=<int>`; each later non-blank line is one non-basis
    as ascending space-separated 1-indexed elements; `#` starts a comment.
    Syntax problems raise MatroidFileError; families that parse but violate
    matroid constraints raise the usual construction errors.
    """
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
    if not lines:
        raise MatroidFileError(f"{path}: no header line")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("r="):
        raise MatroidFileError(f"{path}: header must be 'n=<int> r=<int>'")
    try:
        n = int(head[0][2:])
        r = int(head[1][2:])
    except ValueError as exc:
        raise MatroidFileError(f"{path}: bad header numbers") from exc
    nonbases = []
    for body in lines[1:]:
        try:
            elems = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise MatroidFileError(f"{path}: non-integer token in {body!r}") from exc
        if any(e < 1 or e > n for e in elems):
            raise MatroidFileError(f"{path}: element outside 1..{n} in {body!r}")
        if len(set(elems)) != len(elems):
            raise MatroidFileError(f"{path}: repeated element in {body!r}")
        nonbases.append(set(elems))
    return make_sparse_paving(n, r, nonbases)


# -- target parsing --------------------------------------------------------------


def parse_target(spec: str) -> tuple[str, SparsePavingMatroid]:
    """Resolve a target descriptor to (canonical name, matroid).

    Forms: u:t:k, whirl3, disjoint:r:k, core:r:k, file:<path>.
    """
    parts = spec.split(":")
    try:
        if parts[0] == "u" and len(parts) == 3:
            t, k = int(parts[1]), int(parts[2])
            return f"u:{t}:{k}", uniform(t, k)
        if spec == "whirl3":
            return "whirl3", whirl3()
        if parts[0] == "disjoint" and len(parts) == 3:
            r, k = int(parts[1]), int(parts[2])
            return f"disjoint:{r}:{k}", disjoint_lines(r, k)
        if parts[0] == "core" and len(parts) == 3:
            r, k = int(parts[1]), int(parts[2])
            return f"core:{r}:{k}", common_core_lines(r, k)
        if parts[0] == "file" and len(parts) >= 2:
            path = spec.split(":", 1)[1]
            return f"file:{path}", read_matroid(path)
    except (ValueError, OSError) as exc:
        if isinstance(exc, PavingError):
            raise  # file parsed but breaks a matroid invariant; keep the type
        raise UnknownTargetError(f"bad target {spec!r}: {exc}") from exc
    raise UnknownTargetError(
        f"unknown target {spec!r}; use u:t:k, whirl3, disjoint:r:k, core:r:k, file:path"
    )


# -- verify ----------------------------------------------------------------------


def verify_rows(n_max: int) -> list[dict]:
    """Exhaustive small-n check rows for the four counting bounds.

    Checks per (n, r): max-stable (every stable set within C(n,r)/(n+1-r)),
    byskov (size-k maximal stable set counts within the Byskov bound),
    local-lym (cross-multiplied shadow inequality on every stable set);
    per n >= 2: graham-sloane (s_n strictly above 2^(C(n, n/2)/n), compared
    in integers as s_n^n > 2^C).  Bound functions are looked up through the
    johnson module at call time, so a corrupted bound is caught by name.
    The three per-rank checks read the S_n-orbits of J(n, r)
    (JohnsonGraph.orbits): stable-set sizes and the shadow inequality are
    invariant under relabelling [n], and the maximal sets of each size are
    counted by orbit weight, and s_n is the weights' sum plus 2 (ranks 0
    and n), so nothing is counted.  The checks cover S_{n_max}, so n_max
    must pass the vertex budget: n_max >= 9 raises BudgetExceededError
    before any row.
    """
    johnson_graphs(n_max)
    rows = []
    for n in range(1, n_max + 1):
        total = 2
        for r in range(1, n):
            g = johnson_graph(n, r)
            nv = len(g.vertices)
            bound = johnson.max_stable_bound(n, r)
            max_seen = 0
            lym_ok = True
            sizes: dict[int, int] = {}
            for fam, weight, maximal in g.orbits():
                total += weight
                max_seen = max(max_seen, len(fam))
                if fam and not johnson.local_lym_ok(n, r, fam):
                    lym_ok = False
                if maximal:
                    sizes[len(fam)] = sizes.get(len(fam), 0) + weight
            rows.append(
                {
                    "check": "max-stable",
                    "n": n,
                    "r": r,
                    "ok": Fraction(max_seen) <= bound,
                    "detail": f"max {max_seen} vs {bound}",
                }
            )
            bys_ok = True
            worst = ""
            for k, cnt in sorted(sizes.items()):
                if k == 0:
                    continue  # empty graph corner; Byskov needs k >= 1
                allowed = johnson.byskov_bound(nv, k)
                if cnt > allowed:
                    bys_ok = False
                    worst = f"k={k}: {cnt} > {allowed}"
                    break
            rows.append(
                {
                    "check": "byskov",
                    "n": n,
                    "r": r,
                    "ok": bys_ok,
                    "detail": worst or f"{sum(sizes.values())} maximal sets",
                }
            )
            rows.append(
                {
                    "check": "local-lym",
                    "n": n,
                    "r": r,
                    "ok": lym_ok,
                    "detail": "all stable sets",
                }
            )
        if n >= 2:
            c = comb(n, n // 2)
            rows.append(
                {
                    "check": "graham-sloane",
                    "n": n,
                    "r": "",
                    "ok": total**n > 2**c,
                    "detail": f"s_n={total} vs 2^({c}/{n})",
                }
            )
    return rows


VERIFY_FIELDS = ("check", "n", "r", "ok", "detail")


# -- count -----------------------------------------------------------------------


def count_rows(n: int) -> list[dict]:
    counts = count_sparse_paving(n)
    rows = [{"n": n, "r": r, "count": counts[r]} for r in range(n + 1)]
    rows.append({"n": n, "r": "total", "count": sum(counts.values())})
    return rows


COUNT_FIELDS = ("n", "r", "count")


# -- minor census ----------------------------------------------------------------


def minor_census_rows(
    target_name: str,
    target: SparsePavingMatroid,
    n_values,
    samples: int,
    seed: int,
    exact: bool = True,
) -> list[dict]:
    """Per-n fraction of matroids containing the target as a minor.

    samples == 0 covers all of S_n (n <= 8), one member per S_n-orbit
    weighted by the orbit's size; otherwise that many seeded exact draws.  Both
    modes decide containment with the complete minor search (a clean copy
    is the same test, see minors); exact only sets the mode label, kept so
    that --fast tables keep their bytes.  The rank histogram of the
    population is recorded alongside.
    """
    rows = []
    for n in n_values:
        pop = Population(n, samples, seed, "census")
        hits = 0
        for m, weight in pop:
            if m.r >= target.r and m.n >= target.n and has_minor(m, target) is not None:
                hits += weight
        rows.append(
            {
                "target": target_name,
                "mode": "exact" if exact else "fast",
                "n": n,
                "population": pop.size,
                "exhaustive": pop.exhaustive,
                "hits": hits,
                "frac": pop.share(hits),
                "rank_hist": pop.rank_hist,
                "exact_draws": True,
            }
        )
    return rows


MINOR_FIELDS = (
    "target",
    "mode",
    "n",
    "population",
    "exhaustive",
    "hits",
    "frac",
    "frac_float",
    "rank_hist",
    "exact_draws",
)


# -- non-basis lower-bound census ------------------------------------------------


def nonbasis_bound_rows(n_values, samples: int, seed: int) -> list[dict]:
    """Distribution of |C(M)| against the (1/(4n))C(n,r) landmark, per n.

    ratio(M) = 4n|C(M)|/C(n, r(M)); the table reports its mean, coarse
    buckets, the fraction at or above 1, and how often the maximal
    extension m'(I) of C(M) reaches C(n,r)/(4n) vertices (the eps = 1
    point of the extension threshold).  That last cell needs no search:
    J(n, r) is r(n - r)-regular, so a maximal stable set S dominates the
    graph and |S|(r(n - r) + 1) >= C(n, r).  m'(I) is maximal, so it
    reaches C(n,r)/(4n) whenever r(n - r) + 1 <= 4n, which holds at every
    rank for n <= 15; the Population admits only n <= 8.  Each member is
    read through |C(M)| and its rank alone; ext_exact and exact_draws are
    always true.  samples == 0 walks one member per S_n-orbit, weighted;
    every cell is invariant under relabelling [n].
    """
    rows = []
    for n in n_values:
        pop = Population(n, samples, seed, "nonbasis")
        ratio_sum = Fraction(0)
        buckets = [0] * (len(RATIO_EDGES) + 1)
        for m, weight in pop:
            ratio = Fraction(4 * n * len(m.nonbases), comb(n, m.r))
            ratio_sum += weight * ratio
            buckets[bisect_right(RATIO_EDGES, ratio)] += weight
        ge_1 = sum(buckets[2:])  # ratio >= 1, the second edge
        rows.append(
            {
                "n": n,
                "population": pop.size,
                "exhaustive": pop.exhaustive,
                "mean_ratio": pop.share(ratio_sum),
                "frac_ge_1": pop.share(ge_1),
                "frac_below_1": pop.share(pop.size - ge_1),
                "bucket_lt_half": buckets[0],
                "bucket_half_to_1": buckets[1],
                "bucket_one_to_2": buckets[2],
                "bucket_two_to_4": buckets[3],
                "bucket_ge_4": buckets[4],
                "ext_ge_thresh_frac": pop.share(pop.size),  # every m'(I), by the bound
                "ext_exact": True,
                "rank_hist": pop.rank_hist,
                "exact_draws": True,
            }
        )
    return rows


NONBASIS_FIELDS = (
    "n",
    "population",
    "exhaustive",
    "mean_ratio",
    "mean_ratio_float",
    "frac_ge_1",
    "frac_ge_1_float",
    "frac_below_1",
    "frac_below_1_float",
    "bucket_lt_half",
    "bucket_half_to_1",
    "bucket_one_to_2",
    "bucket_two_to_4",
    "bucket_ge_4",
    "ext_ge_thresh_frac",
    "ext_ge_thresh_frac_float",
    "ext_exact",
    "rank_hist",
    "exact_draws",
)


# -- rendering -------------------------------------------------------------------


def _render_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, dict):
        return ";".join(f"{k}:{val}" for k, val in v.items())
    return v


def render_rows(rows) -> list[dict]:
    """Expand fractions into value + float columns and flatten histograms."""
    out = []
    for row in rows:
        flat = {}
        for k, v in row.items():
            flat[k] = _render_value(v)
            if isinstance(v, Fraction):
                flat[f"{k}_float"] = repr(float(v))
        out.append(flat)
    return out


def rows_to_csv(rows, fields=None) -> str:
    rendered = render_rows(rows)
    if fields is None:
        fields = list(rendered[0].keys()) if rendered else []
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    w.writeheader()
    for row in rendered:
        w.writerow(row)
    return buf.getvalue()


def rows_to_json(rows, fields=None) -> str:
    rendered = render_rows(rows)
    if fields is not None:
        rendered = [{k: row.get(k, "") for k in fields} for row in rendered]
    return json.dumps(rendered, indent=2, sort_keys=True) + "\n"
