"""SQL-on-Hadoop engine profile tests (Section 7.3)."""

from __future__ import annotations

import pytest

from repro.systems import ALL_PROFILES, HAWQ, SimulatedEngine
from repro.workloads import QUERIES, queries_by_id


@pytest.fixture(scope="module")
def engines(tpcds_db):
    return {
        p.name: SimulatedEngine(p, tpcds_db, time_limit_seconds=10_000)
        for p in ALL_PROFILES
    }


class TestProfiles:
    def test_hawq_supports_everything(self, engines):
        hawq = engines["HAWQ"]
        assert all(hawq.supports(q) for q in QUERIES)

    def test_impala_rejects_windows(self, engines):
        q = queries_by_id()["class_ratio_window"]
        assert not engines["Impala"].supports(q)
        outcome = engines["Impala"].run(q)
        assert outcome.status == "unsupported"
        assert "window" in outcome.detail

    def test_impala_rejects_correlated_subqueries(self, engines):
        q = queries_by_id()["exists_customers"]
        assert not engines["Impala"].supports(q)

    def test_stinger_rejects_with_and_case(self, engines):
        assert not engines["Stinger"].supports(
            queries_by_id()["cte_year_totals"]
        )
        assert not engines["Stinger"].supports(
            queries_by_id()["case_counts"]
        )

    def test_presto_rejects_non_equi_joins(self, engines):
        assert not engines["Presto"].supports(
            queries_by_id()["nonequi_inventory"]
        )

    def test_nobody_supports_intersect(self, engines):
        q = queries_by_id()["channel_intersect"]
        for name in ("Impala", "Presto", "Stinger"):
            assert not engines[name].supports(q)
        assert engines["HAWQ"].supports(q)


class TestExecution:
    def test_hawq_executes_supported_query(self, engines):
        outcome = engines["HAWQ"].run(queries_by_id()["star_brand"])
        assert outcome.status == "ok"
        assert outcome.seconds > 0
        assert outcome.rows is not None

    def test_hawq_beats_impala_on_shared_queries(self, engines):
        """Figure 13's mechanism: syntactic join order + no cost-based
        motion planning loses to Orca."""
        shared = [
            q for q in QUERIES
            if engines["Impala"].supports(q) and not q.memory_intensive
        ]
        assert shared
        wins = 0
        total = 0
        for q in shared[:6]:
            hawq = engines["HAWQ"].run(q)
            impala = engines["Impala"].run(q)
            if hawq.status == "ok" and impala.status == "ok":
                total += 1
                if impala.seconds >= hawq.seconds * 0.9:
                    wins += 1
        assert total > 0 and wins >= total * 0.6

    def test_stinger_pays_mapreduce_overheads(self, engines):
        shared = [
            q for q in QUERIES if engines["Stinger"].supports(q)
        ]
        q = shared[0]
        hawq = engines["HAWQ"].run(q)
        stinger = engines["Stinger"].run(q)
        assert stinger.status == "ok"
        assert stinger.seconds > hawq.seconds * 2

    def test_results_identical_across_engines(self, engines, tpcds_db):
        from tests.conftest import rows_equal

        q = queries_by_id()["star_brand"]
        outputs = []
        for name in ("HAWQ", "Stinger"):
            outcome = engines[name].run(q)
            if outcome.status == "ok":
                outputs.append(outcome.rows)
        assert len(outputs) == 2
        assert rows_equal(outputs[0], outputs[1])

    def test_outcome_status(self, engines):
        ok = engines["HAWQ"].run(queries_by_id()["scalar_totals"])
        assert ok.status == "ok"
        bad = engines["Impala"].run(queries_by_id()["class_ratio_window"])
        assert bad.status == "unsupported"
