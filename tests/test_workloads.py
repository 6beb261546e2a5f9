"""TPC-DS workload integration tests.

Every executable query must parse, optimize through both optimizers,
execute on the simulated cluster, and agree on results.
"""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.workloads import (
    FACT_TABLES,
    QUERIES,
    TPCDS_DESCRIPTORS,
    build_schema,
)
from repro.workloads.feature_matrix import supported
from repro.workloads.tpcds_data import table_row_counts
from repro.systems.profiles import HAWQ, IMPALA_LIKE, PRESTO_LIKE, STINGER_LIKE

from tests.conftest import rows_equal


class TestSchema:
    def test_all_24_tables(self):
        db = build_schema()
        assert len(db.tables()) == 24

    def test_fact_tables_partitioned(self):
        db = build_schema()
        for name in FACT_TABLES:
            assert db.table(name).partitioning is not None

    def test_date_dim_has_index(self):
        db = build_schema()
        assert any(
            i.column == "d_date_sk" for i in db.table("date_dim").indexes
        )

    def test_replicated_dimensions(self):
        from repro.catalog import DistributionPolicy

        db = build_schema()
        assert db.table("warehouse").distribution is DistributionPolicy.REPLICATED

    def test_row_counts_scale(self):
        small = table_row_counts(0.1)
        big = table_row_counts(1.0)
        assert big["store_sales"] > small["store_sales"] * 5
        assert big["date_dim"] == small["date_dim"]  # dates don't scale


class TestData:
    def test_referential_integrity(self, tpcds_db):
        items = {r[0] for r in tpcds_db.scan("item")}
        item_pos = tpcds_db.table("store_sales").column_index("ss_item_sk")
        assert all(
            row[item_pos] in items for row in tpcds_db.scan("store_sales")
        )

    def test_fact_partitions_populated(self, tpcds_db):
        table = tpcds_db.table("store_sales")
        nonempty = sum(
            1 for i in range(table.num_partitions())
            if tpcds_db.scan("store_sales", partition_ids=[i])
        )
        assert nonempty == table.num_partitions()

    def test_statistics_analyzed(self, tpcds_db):
        stats = tpcds_db.stats("store_sales")
        assert stats is not None and stats.row_count > 0
        assert stats.column("ss_item_sk").histogram is not None

    def test_item_popularity_skewed(self, tpcds_db):
        hist = tpcds_db.stats("store_sales").column("ss_item_sk").histogram
        assert hist.skew() > 1.5


@pytest.mark.parametrize("query", QUERIES, ids=[q.id for q in QUERIES])
class TestQuerySuite:
    def test_orca_and_planner_agree(self, tpcds_db, query):
        config = OptimizerConfig(segments=8)
        orca_result = Orca(tpcds_db, config=config).optimize(query.sql)
        planner_result = LegacyPlanner(tpcds_db, config).optimize(query.sql)
        cluster = Cluster(tpcds_db, segments=8)
        orca_out = Executor(cluster).execute(
            orca_result.plan, orca_result.output_cols
        )
        planner_out = Executor(cluster).execute(
            planner_result.plan, planner_result.output_cols
        )
        assert rows_equal(orca_out.rows, planner_out.rows)


class TestFeatureMatrix:
    def test_111_descriptors(self):
        assert len(TPCDS_DESCRIPTORS) == 111

    def test_variant_queries_present(self):
        qids = {d.qid for d in TPCDS_DESCRIPTORS}
        assert {"q14", "q14a", "q22", "q22a", "q80", "q80a"} <= qids

    def test_figure_15_optimize_counts(self):
        """HAWQ 111, Impala 31, Presto 12, Stinger 19 (Figure 15)."""
        def count(profile):
            return sum(
                1 for d in TPCDS_DESCRIPTORS
                if supported(d, profile.unsupported_features)
            )

        assert count(HAWQ) == 111
        assert count(IMPALA_LIKE) == 31
        assert count(PRESTO_LIKE) == 12
        assert count(STINGER_LIKE) == 19

    def test_figure_13_impala_supported_ids(self):
        """The Impala-supported set matches the query ids of Figure 13."""
        expected = {
            "q3", "q4", "q7", "q11", "q15", "q19", "q21", "q22a", "q25",
            "q26", "q27a", "q29", "q37", "q42", "q43", "q46", "q50", "q52",
            "q54", "q55", "q59", "q68", "q74", "q75", "q76", "q79", "q82",
            "q85", "q93", "q96", "q97",
        }
        got = {
            d.qid for d in TPCDS_DESCRIPTORS
            if supported(d, IMPALA_LIKE.unsupported_features)
        }
        assert got == expected

    def test_figure_14_stinger_supported_ids(self):
        """The Stinger-supported set matches the query ids of Figure 14."""
        expected = {
            "q3", "q12", "q17", "q18", "q20", "q22", "q25", "q29", "q37",
            "q42", "q52", "q55", "q67", "q76", "q82", "q84", "q86", "q90",
            "q98",
        }
        got = {
            d.qid for d in TPCDS_DESCRIPTORS
            if supported(d, STINGER_LIKE.unsupported_features)
        }
        assert got == expected

    def test_figure_15_execute_counts(self):
        """Execution: spill-less engines lose memory-intensive queries
        (Impala 31 -> 20); Stinger executes everything it optimizes."""
        impala_exec = sum(
            1 for d in TPCDS_DESCRIPTORS
            if supported(d, IMPALA_LIKE.unsupported_features)
            and not d.memory_intensive
        )
        assert impala_exec == 20
        stinger_exec = sum(
            1 for d in TPCDS_DESCRIPTORS
            if supported(d, STINGER_LIKE.unsupported_features)
        )
        assert stinger_exec == 19
