"""Rows checked against an engine nobody here wrote: stdlib ``sqlite3``.

Every other row differential compares the system with itself (Orca vs
the legacy Planner share one executor; the two execution modes share
one compiler).  This file holds both execution modes to sqlite over the
same tables, through the performance ledger's oracle
(``benchmarks/ledger/oracle.py``, loaded by path so nothing there
changes): the TPC-DS corpus, and ``NOT IN`` over NULL-bearing tables,
where SQL's three-valued logic is easy to get wrong.
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
