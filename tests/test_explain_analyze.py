"""EXPLAIN ANALYZE: per-node actuals, their float-identity with the
executor's metrics, and the TAQO score rebuilt from annotations alone."""

from __future__ import annotations

import pytest

import repro
from repro.__main__ import main
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.errors import OptimizerError
from repro.optimizer import Orca
from repro.props.distribution import SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps
from repro.telemetry import analyze_execution, taqo_from_annotations
from repro.verify.taqo import run_taqo
from repro.workloads import QUERIES, build_populated_db

from tests.conftest import rows_equal


SQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 40 ORDER BY t1.a"


@pytest.fixture(scope="module")
def analyzed(small_db):
    orca = Orca(small_db, config=OptimizerConfig(segments=8))
    result = orca.optimize(SQL)
    cluster = Cluster(small_db, segments=8)
    execution = analyze_execution(result.plan, cluster, result.output_cols)
    return result, execution


def required_props(result):
    keys = tuple(
        SortKey(col.id, asc) for col, asc in result.query.required_sort
    )
    return RequiredProps(SINGLETON, OrderSpec(keys))


class TestNodeActuals:
    def test_every_node_has_stats(self, analyzed):
        result, execution = analyzed
        analysis = execution.analysis
        for node in result.plan.walk():
            stats = analysis.stats_for(node)
            assert stats.loops >= 1, node.op

    def test_analysis_absent_without_analyze(self, small_db, analyzed):
        result, _ = analyzed
        cluster = Cluster(small_db, segments=8)
        plain = Executor(cluster).execute(result.plan, result.output_cols)
        assert plain.analysis is None

    def test_analyze_does_not_change_results(self, small_db, analyzed):
        result, execution = analyzed
        cluster = Cluster(small_db, segments=8)
        plain = Executor(cluster).execute(result.plan, result.output_cols)
        assert rows_equal(execution.rows, plain.rows)
        assert execution.metrics.total_work() == plain.metrics.total_work()

    def test_root_window_is_float_identical_to_metrics(self, analyzed):
        """The root's inclusive work is the ledger summed in the order the
        executor fills its metrics from, so the two are equal exactly —
        no tolerance."""
        result, execution = analyzed
        analysis = execution.analysis
        root = analysis.inclusive(result.plan)
        metrics = execution.metrics
        assert root.seg_work == list(metrics.segment_work)
        assert root.master_work == metrics.master_work
        assert root.net_bytes == metrics.net_bytes
        assert analysis.simulated_seconds() == metrics.simulated_seconds()

    def test_exclusive_work_sums_to_inclusive_root(self, analyzed):
        result, execution = analyzed
        assert_exclusive_sums_exactly(result.plan, execution)

    def test_root_rows_match_returned_rows(self, analyzed):
        _result, execution = analyzed
        assert execution.analysis.total_rows() == len(execution.rows)

    def test_estimation_errors_cover_every_operator(self, analyzed):
        result, execution = analyzed
        errors = execution.analysis.estimation_errors()
        assert len(errors) == sum(1 for _ in result.plan.walk())
        for _op, estimated, actual in errors:
            assert estimated >= 0.0
            assert actual >= 0


def assert_exclusive_sums_exactly(plan, execution):
    """Every node's own work and bytes are non-negative, and they add up
    (in ``walk()`` order) to the execution's totals with no tolerance."""
    analysis = execution.analysis
    metrics = execution.metrics
    work = net = 0.0
    for node in plan.walk():
        own, own_net = (
            analysis.exclusive_work(node), analysis.exclusive_net_bytes(node)
        )
        assert own >= 0.0 and own_net >= 0.0, node.op
        assert min(analysis.stats_for(node).seg_work) >= 0.0, node.op
        work += own
        net += own_net
    assert work == metrics.total_work()
    assert net == metrics.net_bytes


@pytest.fixture(scope="module")
def corpus_orca():
    db = build_populated_db(scale=0.1)
    return db, Orca(db, config=OptimizerConfig(segments=8))


@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_exclusive_work_sums_exactly_on_corpus(corpus_orca, query, mode):
    """Per-node exclusive work is what the executor charged each node, so
    its sum is the execution's total work exactly, on every corpus query
    and in both engines."""
    db, orca = corpus_orca
    result = orca.optimize(query.sql)
    execution = Executor(
        Cluster(db, segments=8), execution_mode=mode
    ).execute(result.plan, result.output_cols, analyze=True)
    assert_exclusive_sums_exactly(result.plan, execution)


class TestRendering:
    def test_every_node_line_has_estimates_and_actuals(self, analyzed):
        result, execution = analyzed
        text = execution.analysis.render()
        lines = [line for line in text.splitlines() if line.strip()]
        assert len(lines) == sum(1 for _ in result.plan.walk())
        for line in lines:
            assert "rows=" in line and "cost=" in line
            assert "actual rows=" in line and "loops=" in line
            assert "work=" in line and "net_bytes=" in line

    def test_summary_reports_root_totals(self, analyzed):
        _result, execution = analyzed
        summary = execution.analysis.summary()
        assert "simulated_seconds=" in summary
        assert "skew=" in summary

    def test_result_explain_analyze_requires_execution(self, small_db):
        orca = Orca(small_db, config=OptimizerConfig(segments=8))
        result = orca.optimize(SQL)
        assert "actual" not in result.explain()
        with pytest.raises(OptimizerError, match="analyze=True"):
            result.explain(analyze=True)

    def test_session_explain_analyze(self, small_db):
        session = repro.connect(small_db, segments=8)
        text = session.explain(SQL, analyze=True)
        assert "actual rows=" in text
        assert "plan source: orca" in text

    def test_cli_explain_analyze(self, capsys):
        args = ["--scale", "0.05", "--segments", "4"]
        sql = ("SELECT d.d_year, count(*) AS n FROM date_dim d "
               "GROUP BY d.d_year ORDER BY d.d_year")
        assert main(["explain", sql, "--analyze"] + args) == 0
        out = capsys.readouterr().out
        assert "actual rows=" in out
        assert "actual total:" in out


class TestTaqoFromAnnotations:
    def test_matches_run_taqo_exactly(self, small_db):
        """Acceptance: the TAQO correlation computed from EXPLAIN ANALYZE
        annotations equals repro.verify.taqo's — same sampler, same seed,
        float-identical actuals."""
        orca = Orca(small_db, config=OptimizerConfig(segments=8))
        result = orca.optimize(SQL)
        req = required_props(result)
        cluster = Cluster(small_db, segments=8)
        reference = run_taqo(
            result.memo, req, cluster, output_cols=result.output_cols, n=12
        )
        annotated = taqo_from_annotations(
            result.memo, req, cluster, output_cols=result.output_cols, n=12
        )
        assert annotated.correlation == reference.correlation
        assert annotated.plan_space_size == reference.plan_space_size
        assert len(annotated.samples) == len(reference.samples)
        for ours, theirs in zip(annotated.samples, reference.samples):
            assert ours.estimated_cost == theirs.estimated_cost
            assert ours.actual_seconds == theirs.actual_seconds

    def test_matches_on_tpcds_corpus(self, tpcds_db):
        """The same identity over real TPC-DS-style workload queries."""
        from repro.workloads import QUERIES

        orca = Orca(tpcds_db, config=OptimizerConfig(segments=8))
        cluster = Cluster(tpcds_db, segments=8)
        compared = 0
        for query in QUERIES:
            if compared == 3:
                break
            result = orca.optimize(query.sql)
            if result.query.cte_defs:
                continue  # sampled CTE plans need producer wiring
            req = required_props(result)
            reference = run_taqo(
                result.memo, req, cluster,
                output_cols=result.output_cols, n=6,
            )
            annotated = taqo_from_annotations(
                result.memo, req, cluster,
                output_cols=result.output_cols, n=6,
            )
            assert annotated.correlation == reference.correlation, query.id
            for ours, theirs in zip(annotated.samples, reference.samples):
                assert ours.actual_seconds == theirs.actual_seconds, query.id
            compared += 1
        assert compared == 3
