"""Differential test harness with tracing: Orca vs the legacy Planner.

A corpus of generated queries (seeds disjoint from test_differential's)
is optimized by both planning paths and executed on the same simulated
cluster; result sets must agree row-for-row (sorted comparison).  Every
Orca session runs under a live :class:`repro.trace.Tracer`, and the
harness asserts the trace invariants hold across the whole corpus —
systematic coverage instead of one-off spot checks.
"""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.trace import Tracer

from tests.conftest import make_small_db, rows_equal
from tests.helpers import check_span_consistency
from tests.test_differential import QueryGenerator

#: Seeds 200.. are disjoint from test_differential's 0..51 ranges.
CORPUS_SEEDS = range(200, 230)


@pytest.fixture(scope="module")
def env():
    db = make_small_db(t1_rows=2000, t2_rows=300)
    config = OptimizerConfig(segments=8)
    return db, config, Cluster(db, segments=8)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_corpus_differential_with_trace(env, seed):
    db, config, cluster = env
    sql = QueryGenerator(seed).generate()

    tracer = Tracer()
    orca_result = Orca(db, config=config, tracer=tracer).optimize(sql)
    planner_result = LegacyPlanner(db, config).optimize(sql)

    orca_out = Executor(cluster, tracer=tracer).execute(
        orca_result.plan, orca_result.output_cols
    )
    planner_out = Executor(cluster).execute(
        planner_result.plan, planner_result.output_cols
    )

    # 1. The two independent planning paths agree on the result set.
    assert rows_equal(orca_out.rows, planner_out.rows), sql

    # 2. The trace is internally consistent for every corpus query.
    assert check_span_consistency(tracer) == [], sql
    assert tracer.count("job_done") == orca_result.search_stats.jobs_executed, sql
    assert tracer.count("xform_applied") == orca_result.search_stats.xform_count, sql
    assert tracer.job_kind_counts == orca_result.search_stats.kind_counts, sql
    assert (
        tracer.count("group_created")
        == len(orca_result.memo.groups)
    ), sql
    assert (
        tracer.count("gexpr_added")
        == orca_result.memo._next_gexpr_id
    ), sql
    assert tracer.count("execution_metrics") == 1, sql

    # 3. The trace went through the full pipeline.
    assert {
        "parse", "translate", "normalize", "copy_in", "extract", "execute"
    } <= set(tracer.stage_counts), sql


def test_corpus_is_diverse(env):
    """The generated corpus exercises scans, joins, aggregates and
    subqueries — not thirty copies of the same shape."""
    shapes = set()
    for seed in CORPUS_SEEDS:
        sql = QueryGenerator(seed).generate()
        if "GROUP BY" in sql:
            shapes.add("agg")
        elif "EXISTS" in sql or "IN (SELECT" in sql:
            shapes.add("subquery")
        elif "t2" in sql:
            shapes.add("join")
        else:
            shapes.add("scan")
    assert shapes == {"scan", "join", "agg", "subquery"}
