"""The executor charges the cost model's work terms at actual rows.

``repro.cost.model.work_terms`` is the one statement of every operator's
rate × rows work, read by the estimates, the pruning floor and the
executor.  For each operator kind whose work terms the executor feeds
the rows the model reads, this holds every executed corpus node, in
both execution modes, to those terms at the node's actual per-node input
rows (``local_rows`` of the actual rows at the delivered distribution)
against its exclusive ledger work per node (the per-segment work
divided by the segment count, plus the master's).  A charge spread over
buckets by row share rounds per bucket, so the two agree to 1e-12
relative, not bit for bit.

Not listed, because the two sides feed their terms different rows: a
dynamic scan (the model also discounts by its partition fraction), a
sort (the executor takes the log over all rows, the model per node), a
limit (the executor's output rows against the model's input rows), a
correlated join (its inner plan charges itself) and motions (they ship
bytes, priced by the clock).
"""

from __future__ import annotations

import pytest

from repro.config import ExecutionMode, OptimizerConfig
from repro.cost.model import local_rows, work_terms
from repro.engine import Cluster, Executor
from repro.ops import physical as ph
from repro.optimizer import Orca
from repro.workloads import QUERIES

SEGMENTS = 8

#: Kinds whose terms read each child's rows as they are.
BY_CHILD = (
    ph.PhysicalFilter, ph.PhysicalProject, ph.PhysicalHashJoin,
    ph.PhysicalHashAgg, ph.PhysicalStreamAgg, ph.PhysicalWindow,
    ph.PhysicalAppend, ph.PhysicalCTEProducer,
)
#: Kinds whose one term reads the rows they produce.
BY_OUTPUT = (
    ph.PhysicalTableScan, ph.PhysicalIndexScan, ph.PhysicalCTEConsumer,
)
AGREEING = BY_CHILD + BY_OUTPUT + (ph.PhysicalNLJoin, ph.PhysicalGatherMerge)


@pytest.fixture(scope="module")
def corpus_plans(tpcds_db):
    orca = Orca(tpcds_db, config=OptimizerConfig(segments=SEGMENTS))
    return [orca.optimize(q.sql) for q in QUERIES]


def _reads(node, ledger):
    """The rows ``node``'s terms read, per node and per loop, from the
    ledger's actual rows."""

    def per_node(n):
        entry = ledger[id(n)]
        return local_rows(entry.rows_out / entry.loops, n.delivered.dist, SEGMENTS)

    kind = type(node.op)
    if kind in BY_OUTPUT:
        return (per_node(node),)
    if kind is ph.PhysicalNLJoin:
        # Probed pairs: each node's outer rows against every inner row.
        inner = ledger[id(node.children[1])]
        return (per_node(node.children[0]) * (inner.rows_out / inner.loops),)
    if kind is ph.PhysicalGatherMerge:
        merged = ledger[id(node.children[0])]
        return (merged.rows_out / merged.loops,)
    return tuple(per_node(c) for c in node.children)


@pytest.mark.parametrize("mode", [ExecutionMode.ROW, ExecutionMode.FUSED])
def test_ledger_work_is_the_cost_models_terms_at_actual_rows(
    tpcds_db, corpus_plans, mode
):
    seen = set()
    mismatches = []
    for result in corpus_plans:
        out = Executor(
            Cluster(tpcds_db, segments=SEGMENTS), execution_mode=mode
        ).execute(result.plan, result.output_cols, analyze=True)
        ledger = out.analysis.node_stats
        for node in result.plan.walk():
            kind = type(node.op)
            entry = ledger.get(id(node))
            if kind not in AGREEING or entry is None:
                continue
            if kind is ph.PhysicalIndexScan and node.op.residual is not None:
                continue  # fetched rows are not in the ledger
            seen.add(kind)
            expected = sum(work_terms(node.op, _reads(node, ledger)))
            actual = (
                sum(entry.seg_work) / SEGMENTS + entry.master_work
            ) / entry.loops
            if actual != pytest.approx(expected, rel=1e-12, abs=1e-12):
                mismatches.append((node.op.name, expected, actual))
    assert mismatches == []
    assert seen == set(AGREEING)
