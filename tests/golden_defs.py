"""Builders for the frozen census tables kept under tests/golden/.

Each builder returns (filename, csv_text).  regen_golden.py writes the
files; the acceptance suite recomputes the same bytes and compares.  All
tables are fully determined by the seeds and sample counts below.
"""
from sparsepaving import census, make_sparse_paving, uniform
from sparsepaving.extremal import abundance_trend

SEED = 0
SAMPLES_N8 = 10000
ABUNDANCE_SEED = 7
ABUNDANCE_SAMPLES = 60

ABUNDANCE_FIELDS = (
    "n",
    "samples",
    "m",
    "disjoint_hits",
    "clean_hits",
    "disjoint_frac",
    "disjoint_frac_float",
    "clean_frac",
    "clean_frac_float",
    "rank_hist",
    "exact",
)


def count_tables():
    for n in range(1, 8):
        yield f"count_n{n}.csv", census.rows_to_csv(census.count_rows(n), census.COUNT_FIELDS)


def verify_table():
    yield "verify_n6.csv", census.rows_to_csv(census.verify_rows(6), census.VERIFY_FIELDS)


def minor_census_table():
    rows = census.minor_census_rows("u:2:4", uniform(2, 4), [6, 7], samples=0, seed=SEED)
    rows += census.minor_census_rows("u:2:4", uniform(2, 4), [8], samples=SAMPLES_N8, seed=SEED)
    yield "minor_census_u24.csv", census.rows_to_csv(rows, census.MINOR_FIELDS)


def nonbasis_bound_table():
    rows = census.nonbasis_bound_rows([6, 7], samples=0, seed=SEED)
    rows += census.nonbasis_bound_rows([8], samples=SAMPLES_N8, seed=SEED)
    yield "nonbasis_bound.csv", census.rows_to_csv(rows, census.NONBASIS_FIELDS)


def s8_tables():
    # all of S_8 exactly: the largest S_n the vertex budget admits
    rows = census.minor_census_rows("u:2:4", uniform(2, 4), [8], samples=0, seed=SEED)
    yield "minor_census_u24_s8.csv", census.rows_to_csv(rows, census.MINOR_FIELDS)
    rows = census.nonbasis_bound_rows([8], samples=0, seed=SEED)
    yield "nonbasis_bound_s8.csv", census.rows_to_csv(rows, census.NONBASIS_FIELDS)


def abundance_table():
    h = make_sparse_paving(4, 2, [{1, 2}])
    rows = abundance_trend(h, [6, 7], m=1, samples=ABUNDANCE_SAMPLES, seed=ABUNDANCE_SEED)
    yield "abundance_single.csv", census.rows_to_csv(rows, ABUNDANCE_FIELDS)


def light_tables():
    yield from count_tables()
    yield from verify_table()
    yield from abundance_table()


def heavy_tables():
    yield from minor_census_table()
    yield from nonbasis_bound_table()
    yield from s8_tables()


def all_tables():
    yield from light_tables()
    yield from heavy_tables()
