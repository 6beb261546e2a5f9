"""Fused == row on a cluster that spills and charges per stage.

(The file is named after the batch executor it tested until that engine
was deleted; the name stays because test ids are what the suite's floor
is kept in.  Its cases — the operator-coverage set, the dynamic scan,
the motion-heavy join, the TPC-DS corpus and the Hypothesis random
query — are the ones ``tests/test_fused_executor.py`` runs, so
comparing FUSED with ROW once more on the same cluster would test
nothing twice.)

What varies here is the cluster.  ``tests/test_fused_executor.py``
executes on 8 roomy segments with no stage overheads, where
``_check_memory`` never spills and ``_node_done`` charges no stage
overhead.  This file runs the same inputs the way the
MapReduce-style profile of ``repro.systems`` does: 3 segments, 512
bytes of operator memory with spilling on (a hash-join build side or
group table of more than a few dozen rows overflows and charges its
re-read), a per-stage startup charge and materialized stage outputs —
and executes the fused side twice on one cluster, so the second pass
runs chains compiled by the first over a warm scan cache.  The contract
is the same: rows, every ``ExecutionMetrics`` field and every per-node
``NodeStats`` field of fused chains equal those of one-operator stages
(``ROW``, fusion off), with no tolerance.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.workloads import QUERIES

from tests.conftest import make_partitioned_db, make_small_db
from tests.test_fused_executor import (
    OPERATOR_QUERIES,
    RANDOM_QUERY,
    assert_identical,
    plan_op_names,
    random_query_sql,
)

SEGMENTS = 3
OVERHEADS = dict(per_op_startup_units=9_000.0, materialize_output_factor=3.0)


def tight_cluster(db) -> Cluster:
    return Cluster(
        db, segments=SEGMENTS, memory_limit_bytes=512, spill_enabled=True
    )


def assert_batch_identical(db, result):
    """Row once, fused cold and warm, under spill and stage overheads."""
    row = Executor(
        tight_cluster(db), execution_mode=ExecutionMode.ROW, **OVERHEADS
    ).execute(result.plan, result.output_cols, analyze=True)
    shared = tight_cluster(db)
    for _ in range(2):
        fused = Executor(
            shared, execution_mode=ExecutionMode.FUSED, **OVERHEADS
        ).execute(result.plan, result.output_cols, analyze=True)
        assert_identical(row, fused, result.plan)
    return row


@pytest.fixture(scope="module")
def small_db():
    return make_small_db(t1_rows=1500, t2_rows=300)


@pytest.fixture(scope="module")
def small_orca(small_db):
    return Orca(small_db, config=OptimizerConfig(segments=SEGMENTS))


class TestOperatorCoverage:
    @pytest.mark.parametrize("name", sorted(OPERATOR_QUERIES))
    def test_operator_identical(self, small_db, small_orca, name):
        sql, expected_ops = OPERATOR_QUERIES[name]
        result = small_orca.optimize(sql)
        assert not expected_ops or expected_ops & plan_op_names(result.plan)
        row = assert_batch_identical(small_db, result)
        if name == "hash_join":
            assert row.metrics.rows_spilled > 0

    def test_dynamic_scan_partition_elimination(self):
        db = make_partitioned_db()
        orca = Orca(db, config=OptimizerConfig(segments=SEGMENTS))
        result = orca.optimize(
            "SELECT k, sum(v) FROM fact WHERE day BETWEEN 150 AND 420 "
            "GROUP BY k ORDER BY k"
        )
        row = assert_batch_identical(db, result)
        assert 0 < row.metrics.partitions_scanned < 10

    def test_motion_heavy_redistribution(self, small_db, small_orca):
        result = small_orca.optimize(
            "SELECT t1.b, t2.b FROM t1, t2 WHERE t1.b = t2.b "
            "ORDER BY t1.b LIMIT 30"
        )
        row = assert_batch_identical(small_db, result)
        assert row.metrics.rows_moved > 0


@pytest.fixture(scope="module")
def tpcds_orca(tpcds_db):
    return Orca(tpcds_db, config=OptimizerConfig(segments=SEGMENTS))


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_tpcds_corpus_identical(tpcds_db, tpcds_orca, query):
    assert_batch_identical(tpcds_db, tpcds_orca.optimize(query.sql))


@settings(max_examples=25, deadline=None)
@given(**RANDOM_QUERY)
def test_random_query_identical(small_db, small_orca, **draw):
    assert_batch_identical(
        small_db, small_orca.optimize(random_query_sql(**draw))
    )
