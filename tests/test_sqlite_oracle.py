"""Rows checked against an engine nobody here wrote: stdlib ``sqlite3``.

Every other row differential compares the system with itself (Orca vs
the legacy Planner share one executor; the two execution modes share
one compiler).  This file holds both execution modes to sqlite over the
same tables, through the performance ledger's oracle
(``benchmarks/ledger/oracle.py``, loaded by path so nothing there
changes): the TPC-DS corpus, plans TAQO draws from each corpus Memo
(any plan in the Memo must return the chosen plan's rows), and ``NOT
IN`` over NULL-bearing tables, where SQL's three-valued logic is easy
to get wrong.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.catalog import Column, Database, INT, Table
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.props.distribution import SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps
from repro.verify.taqo import sample_plans
from repro.workloads import QUERIES

ORACLE = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "oracle.py"
)

MODES = list(ExecutionMode)


def load_oracle():
    """The ledger's oracle module, loaded once per process."""
    name = "ledger_oracle"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ORACLE)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolves the module's string annotations through
        # sys.modules, so it is registered before it runs.
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture(scope="module")
def oracle_module():
    return load_oracle()


def execute(db, result, mode, segments=8):
    ex = Executor(Cluster(db, segments=segments), execution_mode=mode)
    return ex.execute(result.plan, result.output_cols).rows


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus(oracle_module, tpcds_db):
    """(Orca, sqlite oracle, per-SQL expected-answer memo)."""
    oracle = oracle_module.Oracle(tpcds_db)
    yield Orca(tpcds_db, config=OptimizerConfig(segments=8)), oracle, {}
    oracle.close()


def expected(corpus, sql):
    _orca, oracle, memo = corpus
    if sql not in memo:
        memo[sql] = oracle.expected(sql)
    return memo[sql]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_corpus_matches_sqlite(oracle_module, tpcds_db, corpus, query, mode):
    result = corpus[0].optimize(query.sql)
    rows = execute(tpcds_db, result, mode)
    assert oracle_module.compare(rows, expected(corpus, query.sql)) == ""


def test_corpus_reference_sources(corpus):
    """sqlite answers every corpus statement but the ROLLUP one, which
    falls back to the legacy Planner on its own executor."""
    sources = {q.id: expected(corpus, q.sql).source for q in QUERIES}
    assert Counter(sources.values()) == {"sqlite": 31, "planner_row": 1}
    assert sources["category_rollup"] == "planner_row"


# ---------------------------------------------------------------------------
# The plan space
# ---------------------------------------------------------------------------

#: Plans TAQO's uniform sampler draws from each query's Memo.
PLAN_SAMPLES = 6

#: Queries the plan-space check leaves out: the two whose CTE producers
#: are optimized in Memos of their own (the sampler would need their
#: plans), and the ROLLUP one, which sqlite does not judge.
NOT_SAMPLED = {"cte_frequent_items", "cte_year_totals", "category_rollup"}


@pytest.mark.parametrize(
    "query", [q for q in QUERIES if q.id not in NOT_SAMPLED],
    ids=lambda q: q.id,
)
def test_sampled_plans_match_sqlite(oracle_module, tpcds_db, corpus, query):
    """Every sampled plan, chosen or not, returns sqlite's rows in both
    execution modes: each xform and enforcer preserves semantics."""
    result = corpus[0].optimize(query.sql)
    want = expected(corpus, query.sql)
    assert want.source == "sqlite" and not result.query.cte_defs
    req = RequiredProps(SINGLETON, OrderSpec(tuple(
        SortKey(c.id, asc) for c, asc in result.query.required_sort
    )))
    samples = sample_plans(result.memo, req, PLAN_SAMPLES)
    assert samples
    for sample in samples:
        for mode in MODES:
            ex = Executor(Cluster(tpcds_db, segments=8), execution_mode=mode)
            rows = ex.execute(sample.plan, result.output_cols).rows
            assert oracle_module.compare(rows, want) == "", (
                mode, sample.plan.explain(),
            )


# ---------------------------------------------------------------------------
# [NOT] IN (subquery) with NULLs on either side
# ---------------------------------------------------------------------------

R_ROWS = [(1, 1), (2, 1), (3, 2), (None, 1), (5, 2)]
S_ROWS = {
    "s_with_nulls": [(1, 1), (None, 1), (5, 2)],
    "s_without_nulls": [(1, 1), (5, 2)],
    "s_empty": [],
}

IN_QUERIES = {
    "uncorrelated": "SELECT r.a FROM r WHERE r.a {op} (SELECT s.a FROM s)",
    "correlated": (
        "SELECT r.a FROM r WHERE r.a {op} "
        "(SELECT s.a FROM s WHERE s.g = r.g)"
    ),
}


def make_null_db(s_rows) -> Database:
    """``r(a, g)`` with a NULL ``a``; ``s(a, g)`` as given."""
    db = Database()
    for name in ("r", "s"):
        db.create_table(Table(
            name, [Column("a", INT), Column("g", INT)],
            distribution_columns=("g",),
        ))
    db.insert("r", R_ROWS)
    db.insert("s", s_rows)
    db.analyze()
    return db


@pytest.fixture(scope="module")
def null_dbs(oracle_module):
    out = {}
    for name, s_rows in S_ROWS.items():
        db = make_null_db(s_rows)
        out[name] = (db, oracle_module.Oracle(db))
    yield out
    for _db, oracle in out.values():
        oracle.close()


@pytest.mark.parametrize("decorrelate", [True, False],
                         ids=["decorrelated", "nested"])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("shape", sorted(IN_QUERIES))
@pytest.mark.parametrize("op", ["IN", "NOT IN"])
@pytest.mark.parametrize("s_name", sorted(S_ROWS))
def test_in_subquery_matches_sqlite(
    oracle_module, null_dbs, s_name, op, shape, mode, decorrelate
):
    db, oracle = null_dbs[s_name]
    sql = IN_QUERIES[shape].format(op=op)
    orca = Orca(db, config=OptimizerConfig(
        segments=3, enable_decorrelation=decorrelate,
    ))
    rows = execute(db, orca.optimize(sql), mode, segments=3)
    want = oracle.expected(sql)
    assert want.source == "sqlite"
    assert oracle_module.compare(rows, want) == "", (sql, rows, want.rows)


# ---------------------------------------------------------------------------
# A top-level compound's ORDER BY / LIMIT
# ---------------------------------------------------------------------------

#: NULL-free ``r(a, g)`` and ``s(a, g)``; ``a = 4`` is in both, so UNION
#: and UNION ALL differ.
COMPOUND_ROWS = {
    "r": [(1, 1), (4, 2), (7, 1), (2, 2), (9, 1)],
    "s": [(3, 1), (8, 2), (4, 1), (6, 2)],
}

#: Our SQL, and sqlite's spelling where it differs: sqlite takes no
#: parenthesized compound branch, so there the branch is a derived table.
COMPOUND_QUERIES = {
    "union_all_order_desc": (
        "SELECT a FROM r UNION ALL SELECT a FROM s ORDER BY a DESC", None,
    ),
    "union_all_order_limit": (
        "SELECT a FROM r UNION ALL SELECT a FROM s ORDER BY a LIMIT 3", None,
    ),
    "union_order_desc": (
        "SELECT a FROM r UNION SELECT a FROM s ORDER BY a DESC", None,
    ),
    "union_order_limit": (
        "SELECT a FROM r UNION SELECT a FROM s ORDER BY a DESC LIMIT 3", None,
    ),
    "parenthesized_branch_limit": (
        "SELECT a FROM r UNION ALL (SELECT a FROM s ORDER BY a LIMIT 3) "
        "ORDER BY a DESC",
        "SELECT a FROM r UNION ALL "
        "SELECT * FROM (SELECT a FROM s ORDER BY a LIMIT 3) ORDER BY a DESC",
    ),
    "parenthesized_head_limit": (
        "(SELECT a FROM r ORDER BY a DESC LIMIT 2) UNION ALL SELECT a FROM s",
        "SELECT * FROM (SELECT a FROM r ORDER BY a DESC LIMIT 2) "
        "UNION ALL SELECT a FROM s",
    ),
}


@pytest.fixture(scope="module")
def compound_db(oracle_module):
    db = Database()
    for name, rows in COMPOUND_ROWS.items():
        db.create_table(Table(
            name, [Column("a", INT), Column("g", INT)],
            distribution_columns=("g",),
        ))
        db.insert(name, rows)
    db.analyze()
    oracle = oracle_module.Oracle(db)
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(COMPOUND_QUERIES))
def test_compound_order_limit_matches_sqlite(
    oracle_module, compound_db, name, mode
):
    """A trailing ORDER BY / LIMIT after a bare branch sorts and cuts
    the whole compound; a parenthesized branch keeps its own."""
    db, oracle = compound_db
    sql, sqlite_sql = COMPOUND_QUERIES[name]
    orca = Orca(db, config=OptimizerConfig(segments=3))
    rows = execute(db, orca.optimize(sql), mode, segments=3)
    want = oracle.expected(sqlite_sql or sql)
    assert want.source == "sqlite"
    assert oracle_module.compare(rows, want) == "", (sql, rows, want.rows)


# ---------------------------------------------------------------------------
# Two-phase aggregation: split avg and split DQA
# ---------------------------------------------------------------------------

SPLIT_RULES = ("SplitGbAgg", "SplitDQA")


def split_rows() -> list[tuple]:
    """``e(k, g, x, y)``, hashed on ``k`` over 8 segments: group 1's
    ``x`` is all NULL, other ``x`` are NULL now and then, and group 7
    has two rows, so most segments never see it."""
    rows = []
    for k in range(240):
        g = k % 3
        x = None if g == 1 or k % 7 == 0 else k % 5
        rows.append((k, g, x, k % 11))
    return rows + [(1000, 7, 3, 1), (1001, 7, None, 2)]


#: Output columns holding an ``avg``.
AVG_COLUMNS = {"ax", "ay"}

SPLIT_QUERIES = {
    "brand_having_shape": (
        "SELECT g, count(*) AS cnt, avg(y) AS ay FROM e GROUP BY g "
        "HAVING count(*) > 1 ORDER BY cnt DESC, g LIMIT 100"
    ),
    "grouped_avg": (
        "SELECT g, count(*) AS n, avg(x) AS ax, avg(y) AS ay FROM e GROUP BY g"
    ),
    "scalar_avg": "SELECT avg(x) AS ax, sum(y) AS sy, count(*) AS n FROM e",
    "scalar_avg_empty": (
        "SELECT avg(x) AS ax, count(*) AS n FROM e WHERE g > 100"
    ),
    "grouped_dqa": (
        "SELECT g, count(DISTINCT x) AS dx, sum(y) AS sy FROM e GROUP BY g"
    ),
    "grouped_dqa_avg": (
        "SELECT g, sum(DISTINCT x) AS sx, avg(y) AS ay, min(y) AS my, "
        "count(*) AS n FROM e GROUP BY g"
    ),
    "scalar_dqa": "SELECT count(DISTINCT x) AS dx, sum(y) AS sy FROM e",
    "scalar_dqa_empty": (
        "SELECT count(DISTINCT x) AS dx, count(*) AS n, count(y) AS cy, "
        "sum(y) AS sy, avg(y) AS ay FROM e WHERE g > 100"
    ),
}


@pytest.fixture(scope="module")
def split_db(oracle_module):
    db = Database()
    db.create_table(Table(
        "e",
        [Column("k", INT), Column("g", INT), Column("x", INT), Column("y", INT)],
        distribution_columns=("k",),
    ))
    db.insert("e", split_rows())
    db.analyze()
    oracle = oracle_module.Oracle(db)
    yield db, oracle
    oracle.close()


@pytest.mark.parametrize("split", [True, False], ids=["split", "unsplit"])
@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(SPLIT_QUERIES))
def test_split_aggregates_match_sqlite(
    oracle_module, split_db, name, mode, split
):
    """NULL arguments, groups missing from segments and empty inputs
    give sqlite's answers with the split rules on and off; ``avg`` of
    an INT column is a float either way."""
    db, oracle = split_db
    sql = SPLIT_QUERIES[name]
    config = OptimizerConfig(segments=8)
    if not split:
        config = config.with_disabled(*SPLIT_RULES)
    result = Orca(db, config=config).optimize(sql)
    rows = execute(db, result, mode)
    want = oracle.expected(sql)
    assert want.source == "sqlite"
    assert oracle_module.compare(rows, want) == "", (sql, rows, want.rows)
    for row in rows:
        for column, value in zip(result.output_names, row):
            if column in AVG_COLUMNS and value is not None:
                assert type(value) is float, (column, value)


@pytest.mark.parametrize("name", sorted(SPLIT_QUERIES))
def test_split_plan_space_matches_sqlite(oracle_module, split_db, name):
    """The split plans the cost model passes over on this small table
    (every DISTINCT and every empty-input case) are sampled from the
    Memo and held to sqlite in both modes too."""
    db, oracle = split_db
    sql = SPLIT_QUERIES[name]
    result = Orca(db, config=OptimizerConfig(segments=8)).optimize(sql)
    want = oracle.expected(sql)
    req = RequiredProps(SINGLETON, OrderSpec(tuple(
        SortKey(c.id, asc) for c, asc in result.query.required_sort
    )))
    samples = sample_plans(result.memo, req, 40)
    assert any(":partial" in s.plan.explain() for s in samples)
    for sample in samples:
        for mode in MODES:
            ex = Executor(Cluster(db, segments=8), execution_mode=mode)
            rows = ex.execute(sample.plan, result.output_cols).rows
            assert oracle_module.compare(rows, want) == "", (
                mode, sample.plan.explain(), rows, want.rows,
            )


@pytest.mark.parametrize("name", sorted(SPLIT_QUERIES))
def test_split_rules_shape_the_plan(split_db, name):
    """Disabled by name, neither rule leaves a trace in the plan."""
    db, _oracle = split_db
    config = OptimizerConfig(segments=8).with_disabled(*SPLIT_RULES)
    plan = Orca(db, config=config).optimize(SPLIT_QUERIES[name]).plan.explain()
    assert ":partial" not in plan and ":final" not in plan


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_correlated_split_avg_matches_sqlite(
    oracle_module, tpcds_db, corpus, mode
):
    """With decorrelation off the subquery's split ``avg`` runs once per
    outer binding, and the join attaches its value by column: the inner
    plan also carries the partial sum and count."""
    (query,) = [q for q in QUERIES if q.id == "avg_price_corr_subquery"]
    orca = Orca(tpcds_db, config=OptimizerConfig(
        segments=8, enable_decorrelation=False,
    ))
    result = orca.optimize(query.sql)
    assert "HashAgg:partial" in result.plan.explain()
    rows = execute(tpcds_db, result, mode)
    assert oracle_module.compare(rows, expected(corpus, query.sql)) == ""


def test_brand_having_aggregates_before_the_motion(corpus):
    """The corpus's GROUP BY with ``avg`` pre-aggregates on each
    segment, so the Redistribute carries partials, not joined rows."""
    (query,) = [q for q in QUERIES if q.id == "brand_having"]
    plan = corpus[0].optimize(query.sql).plan.explain()
    assert "HashAgg:partial" in plan
