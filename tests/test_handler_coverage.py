"""No dead handlers, and one handler table.

Both execution modes run the compiled engine: ``FUSED`` compiles every
breaker-free chain into one stage, ``ROW`` every streaming operator and
sink into a one-operator chain of its own.  What is not a chain member
runs on ``Executor._HANDLERS``, one table for both modes.  This guard
runs the TPC-DS corpus, the six streaming statements the ledger's
``scan_heavy`` adds (copied here as SQL; tier-1 does not import the
ledger) and the operator-coverage cases through both modes with every
table entry wrapped in a counter, and checks:

(a) no Filter / Project / HashJoin / HashAgg / StreamAgg type has a
    handler, so no such node is dispatched through the table — each is
    a member of a compiled chain, and ``run_chain`` runs it;
(b) every entry of the table is entered in each mode's run.  An
    operator no statement's best plan contains is reached through a
    configuration that forces it (``EXTRA``), not skipped;
(c) in ``ROW`` every chain has exactly one operator, and every
    streaming or sink node tops one.
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.fused import fused_chains
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


def entered_handlers(plans, mode) -> set:
    """Run every plan in ``mode``; returns the operator types dispatched
    through the handler table."""
    entered: set = set()

    def counting(op_type, handler):
        def wrapper(ex, node):
            entered.add(op_type)
            return handler(ex, node)
        return wrapper

    table = {t: counting(t, h) for t, h in Executor._HANDLERS.items()}
    for db, result in plans:
        ex = Executor(Cluster(db, segments=8), execution_mode=mode)
        ex._HANDLERS = table  # shadows the class table for this run
        ex.execute(result.plan, result.output_cols)
    return entered


def _dead(entered) -> list:
    return sorted(t.__name__ for t in Executor._HANDLERS if t not in entered)


@pytest.fixture(scope="module")
def fused_run(plans):
    return entered_handlers(plans, ExecutionMode.FUSED)


def test_fused_mode_dispatches_no_chain_member(fused_run):
    members = set(STREAMING_OPS + SINK_OPS)
    assert sorted(t.__name__ for t in members & set(Executor._HANDLERS)) == []
    assert sorted(t.__name__ for t in members & fused_run) == []


def test_fused_mode_enters_every_handler(fused_run):
    assert _dead(fused_run) == []


def test_row_mode_enters_every_row_handler(plans):
    assert _dead(entered_handlers(plans, ExecutionMode.ROW)) == []


def test_row_mode_runs_one_operator_per_chain(plans):
    for _db, result in plans:
        chains = fused_chains(result.plan, fuse=False)
        assert all(len(c.ops) == 1 for c in chains.values())
        members = {
            id(n) for n in result.plan.walk()
            if isinstance(n.op, STREAMING_OPS + SINK_OPS)
        }
        assert set(chains) == members
