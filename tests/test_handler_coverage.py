"""No dead handlers: every entry of a handler table is entered.

PR 17 left ``_b_hash_join``, ``_b_agg`` and ``_fold_column`` in the
default mode's handler table with no statement reaching them, and
nothing noticed for two PRs.  This guard runs the TPC-DS corpus, the six
streaming statements the ledger's ``scan_heavy`` adds (copied here as
SQL; tier-1 does not import the ledger) and the operator-coverage cases
through both modes with every handler-table entry wrapped in a counter,
and checks:

(a) in FUSED mode no Filter / Project / HashJoin / HashAgg / StreamAgg
    node is dispatched through ``Executor._handlers`` — each is a member
    of a compiled chain, so ``run_chain`` runs it;
(b) every entry FUSED mode lays over the row interpreter's table is
    entered in the FUSED run, and every entry of the row table in the
    ROW run.  An operator no statement's best plan contains is reached
    through a configuration that forces it (``EXTRA``), not skipped.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.fused import FUSED_HANDLERS
from repro.engine.pipeline import SINK_OPS, STREAMING_OPS
from repro.optimizer import Orca
from repro.workloads import QUERIES

from tests.conftest import make_small_db
from tests.test_fused_executor import OPERATOR_QUERIES

#: ``benchmarks/ledger/workloads.py::ENGINE_STATEMENTS``, as SQL.
ENGINE_STATEMENTS = (
    "SELECT ss_quantity * 2 + 1 FROM store_sales "
    "WHERE ss_quantity > 10 AND ss_sales_price > 50.0",
    "SELECT i_category, count(*), sum(ss_sales_price) "
    "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
    "GROUP BY i_category",
    "SELECT count(*) FROM store_sales, item, date_dim "
    "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk",
    "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
    "avg(ss_ext_sales_price) AS avg_ext, min(ss_net_profit) AS lo, "
    "max(ss_net_profit) AS hi FROM store_sales "
    "WHERE ss_quantity > 1 GROUP BY ss_item_sk",
    "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
    "avg(ss_net_profit) AS avg_np FROM store_sales, item "
    "WHERE ss_item_sk = i_item_sk GROUP BY ss_item_sk",
    "SELECT cs_item_sk, count(*) AS n, sum(cs_sales_price) AS rev, "
    "avg(cs_net_profit) AS avg_np, max(cs_ext_sales_price) AS hi "
    "FROM catalog_sales WHERE cs_quantity > 0 GROUP BY cs_item_sk",
)

#: Operators the cost model never picks on these databases, each behind
#: the configuration that leaves the optimizer no other choice.
EXTRA = (
    # PhysicalMergeJoin
    ("SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a",
     dict(disabled_rules=frozenset({"InnerJoin2HashJoin", "InnerJoin2NLJoin"}))),
    # PhysicalCorrelatedNLJoin
    ("SELECT a FROM t1 WHERE b > (SELECT avg(t2.b) FROM t2 WHERE t2.a = t1.a)",
     dict(enable_decorrelation=False)),
)


@pytest.fixture(scope="module")
def plans(tpcds_db):
    """(database, optimization result) of every statement."""
    small = make_small_db(t1_rows=1500, t2_rows=300)
    out = []
    orca = Orca(tpcds_db, config=OptimizerConfig(segments=8))
    for sql in [q.sql for q in QUERIES] + list(ENGINE_STATEMENTS):
        out.append((tpcds_db, orca.optimize(sql)))
    orca = Orca(small, config=OptimizerConfig(segments=8))
    for sql, _ops in OPERATOR_QUERIES.values():
        out.append((small, orca.optimize(sql)))
    for sql, config in EXTRA:
        forced = Orca(small, config=OptimizerConfig(segments=8, **config))
        out.append((small, forced.optimize(sql)))
    return out


def entered_handlers(plans, mode) -> tuple[dict, set]:
    """Run every plan in ``mode``; returns (the mode's handler table,
    the operator types dispatched through it)."""
    entered: set = set()
    table: dict = {}

    def counting(op_type, handler):
        def wrapper(ex, node):
            entered.add(op_type)
            return handler(ex, node)
        return wrapper

    for db, result in plans:
        ex = Executor(Cluster(db, segments=8), execution_mode=mode)
        table = ex._handlers
        ex._handlers = {t: counting(t, h) for t, h in table.items()}
        ex.execute(result.plan, result.output_cols)
    return table, entered


@pytest.fixture(scope="module")
def fused_run(plans):
    return entered_handlers(plans, ExecutionMode.FUSED)


def test_fused_mode_dispatches_no_chain_member(fused_run):
    _table, entered = fused_run
    members = entered & set(STREAMING_OPS + SINK_OPS)
    assert sorted(t.__name__ for t in members) == []


def test_fused_mode_enters_every_handler_it_lays_over_the_row_table(fused_run):
    table, entered = fused_run
    overlay = {
        t: h for t, h in table.items() if Executor._HANDLERS.get(t) is not h
    }
    dead = sorted(h.__name__ for t, h in overlay.items() if t not in entered)
    assert dead == []
    assert overlay == FUSED_HANDLERS


def test_row_mode_enters_every_row_handler(plans):
    table, entered = entered_handlers(plans, ExecutionMode.ROW)
    assert table is Executor._HANDLERS
    dead = sorted(t.__name__ for t in table if t not in entered)
    assert dead == []
