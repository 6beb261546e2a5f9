"""AMPERe, TAQO and cardinality-test framework tests (Section 6)."""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.errors import OptimizerError
from repro.optimizer import Orca
from repro.props.distribution import SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps
from repro.verify.ampere import (
    AMPEReDump,
    capture_dump,
    plans_match,
    replay_dump,
)
from repro.verify.qerror import plan_qerror
from repro.verify.taqo import (
    correlation_score,
    count_plans,
    run_taqo,
    sample_plans,
    SampledPlan,
)
from repro.workloads import QUERIES

from tests.conftest import make_small_db, rows_equal
from tests.helpers import plan_operators


@pytest.fixture(scope="module")
def db():
    return make_small_db()


@pytest.fixture(scope="module")
def optimized(db):
    orca = Orca(db, config=OptimizerConfig(segments=8))
    sql = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 40 ORDER BY t1.a"
    result = orca.optimize(sql)
    req = RequiredProps(
        SINGLETON, OrderSpec((SortKey(result.query.required_sort[0][0].id),))
    )
    return sql, result, req


class TestAMPERe:
    def test_capture_contains_minimal_metadata(self, db):
        dump = capture_dump(db, "SELECT a FROM t1 WHERE b > 1")
        text = dump.to_string()
        assert 't1' in text
        # t2 is not referenced: minimal harvest excludes it
        assert '"t2"' not in text and "Name=\"t2\"" not in text

    def test_file_roundtrip(self, db, tmp_path):
        dump = capture_dump(db, "SELECT a FROM t1 ORDER BY a")
        path = tmp_path / "repro.dxl"
        dump.save(path)
        loaded = AMPEReDump.load(path)
        assert loaded.segments == dump.segments

    def test_replay_reproduces_plan(self, db, optimized):
        sql, result, _req = optimized
        dump = capture_dump(
            db, sql, OptimizerConfig(segments=8), expected_plan=result.plan
        )
        replayed = replay_dump(dump)
        assert plans_match(dump, replayed)

    def test_replay_detects_plan_divergence(self, db, optimized):
        """A config change between capture and replay flips the plan,
        failing the embedded-expected-plan test case (Section 6.1)."""
        sql, result, _req = optimized
        dump = capture_dump(
            db, sql, OptimizerConfig(segments=8), expected_plan=result.plan
        )
        replayed = replay_dump(
            dump, OptimizerConfig(segments=8).with_disabled("InnerJoin2HashJoin")
        )
        assert not plans_match(dump, replayed)

    def test_replay_offline(self, db, optimized):
        """Replay works from the dump alone: a fresh empty-rows database is
        reconstructed from the embedded metadata."""
        sql, _result, _req = optimized
        dump = capture_dump(db, sql, OptimizerConfig(segments=8))
        text = dump.to_string()
        import xml.etree.ElementTree as ET

        loaded = AMPEReDump.from_xml(ET.fromstring(text))
        replayed = replay_dump(loaded)
        assert replayed.plan is not None

    def test_exception_stacktrace_captured(self, db):
        try:
            raise OptimizerError("boom")
        except OptimizerError as exc:
            dump = capture_dump(db, "SELECT a FROM t1", exception=exc)
        assert "boom" in dump.to_string()
        assert "OptimizerError" in dump.stacktrace

    def test_trace_flags_roundtrip(self, db):
        cfg = OptimizerConfig(
            segments=8, trace_flags=frozenset({"gp_optimizer_hashjoin"})
        )
        dump = capture_dump(db, "SELECT a FROM t1", cfg)
        import xml.etree.ElementTree as ET

        loaded = AMPEReDump.from_xml(ET.fromstring(dump.to_string()))
        assert "gp_optimizer_hashjoin" in loaded.trace_flags

    def test_cte_query_replay(self, db):
        sql = (
            "WITH v AS (SELECT c, count(*) AS n FROM t1 GROUP BY c) "
            "SELECT v1.c FROM v v1, v v2 WHERE v1.n = v2.n"
        )
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(sql)
        dump = capture_dump(
            db, sql, OptimizerConfig(segments=8), expected_plan=result.plan
        )
        replayed = replay_dump(dump)
        assert plans_match(dump, replayed)


class TestAMPEReCorpus:
    """Every corpus query's dump, written out and loaded back, replays
    offline to the plan it captured."""

    @pytest.fixture(scope="class")
    def live_orca(self, tpcds_db):
        return Orca(tpcds_db, config=OptimizerConfig(segments=8))

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
    def test_dump_replays_to_captured_plan(
        self, query, tpcds_db, live_orca, tmp_path
    ):
        result = live_orca.optimize(query.sql)
        dump = capture_dump(
            tpcds_db, query.sql, live_orca.config, expected_plan=result.plan
        )
        path = tmp_path / "dump.dxl"
        path.write_text(dump.to_string(), encoding="utf-8")
        loaded = AMPEReDump.load(path)
        assert plans_match(loaded, replay_dump(loaded))


class TestTAQO:
    def test_plan_space_counted(self, db, optimized):
        _sql, result, req = optimized
        assert count_plans(result.memo, result.memo.root, req) > 10

    def test_samples_are_distinct_valid_plans(self, db, optimized):
        _sql, result, req = optimized
        samples = sample_plans(result.memo, req, 10)
        assert len(samples) >= 5
        fingerprints = {
            tuple(plan_operators(s.plan)) for s in samples
        }
        assert len(fingerprints) == len(samples)

    def test_sampled_plans_execute_to_same_result(self, db, optimized):
        _sql, result, req = optimized
        samples = sample_plans(result.memo, req, 8)
        cluster = Cluster(db, segments=8)
        outputs = [
            Executor(cluster).execute(s.plan, result.output_cols).rows
            for s in samples
        ]
        for rows in outputs[1:]:
            assert rows_equal(rows, outputs[0])

    def test_full_taqo_correlation_high(self, db, optimized):
        """Cost model and simulated executor share constants, so the
        ordering correlation should be strongly positive (Figure 11)."""
        _sql, result, req = optimized
        cluster = Cluster(db, segments=8)
        report = run_taqo(
            result.memo, req, cluster, output_cols=result.output_cols, n=12
        )
        assert report.correlation > 0.5
        assert report.plan_space_size > 0

    def test_correlation_score_perfect_and_inverted(self):
        good = [
            SampledPlan(plan=None, estimated_cost=c, actual_seconds=c)
            for c in (1.0, 2.0, 4.0, 8.0)
        ]
        assert correlation_score(good) == pytest.approx(1.0)
        bad = [
            SampledPlan(plan=None, estimated_cost=-c, actual_seconds=c)
            for c in (1.0, 2.0, 4.0, 8.0)
        ]
        assert correlation_score(bad) == pytest.approx(-1.0)

    def test_close_actuals_ignored(self):
        samples = [
            SampledPlan(plan=None, estimated_cost=2.0, actual_seconds=1.000),
            SampledPlan(plan=None, estimated_cost=1.0, actual_seconds=1.001),
        ]
        # within the distance threshold: no significant pairs -> score 1
        assert correlation_score(samples) == pytest.approx(1.0)

    def test_misordering_good_plans_weighs_more(self):
        # swap the two best plans vs swap the two worst plans
        best_swapped = [
            SampledPlan(plan=None, estimated_cost=e, actual_seconds=a)
            for e, a in [(2, 1), (1, 2), (4, 4), (8, 8)]
        ]
        worst_swapped = [
            SampledPlan(plan=None, estimated_cost=e, actual_seconds=a)
            for e, a in [(1, 1), (2, 2), (8, 4), (4, 8)]
        ]
        assert correlation_score(best_swapped) < correlation_score(worst_swapped)


class TestCardinalityFramework:
    def test_report_from_execution(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 WHERE b > 50")
        out = Executor(Cluster(db, segments=8)).execute(
            result.plan, result.output_cols, analyze=True
        )
        report = plan_qerror(out.analysis)
        assert report.nodes
        assert report.median < 1.5
        assert report.worst(2)

    def test_estimates_good_on_histogrammed_filters(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 40"
        )
        out = Executor(Cluster(db, segments=8)).execute(
            result.plan, result.output_cols, analyze=True
        )
        report = plan_qerror(out.analysis)
        assert report.max_qerror < 5.0
