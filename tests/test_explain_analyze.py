"""EXPLAIN ANALYZE: per-node actuals, their float-identity with the
executor's metrics, and TAQO's actuals read off the same annotations."""

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
from repro.verify.qerror import plan_qerror
from repro.verify.taqo import run_taqo
from repro.workloads import QUERIES, build_populated_db

from tests.conftest import rows_equal


SQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 40 ORDER BY t1.a"


@pytest.fixture(scope="module")
def analyzed(small_db):
    orca = Orca(small_db, config=OptimizerConfig(segments=8))
    result = orca.optimize(SQL)
    cluster = Cluster(small_db, segments=8)
    execution = Executor(cluster).execute(
        result.plan, result.output_cols, analyze=True
    )
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

    def test_plan_qerror_covers_every_executed_node(self, analyzed):
        result, execution = analyzed
        analysis = execution.analysis
        executed = [
            node for node in result.plan.walk()
            if analysis.stats_for(node).loops > 0
        ]
        report = plan_qerror(analysis)
        assert [n.operator for n in report.nodes] == [
            node.op.name for node in executed
        ]
        for entry in report.nodes:
            assert entry.estimated_rows >= 0.0
            assert entry.actual_rows >= 0
            assert entry.qerror >= 1.0


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
    its sum is the execution's total work exactly, and the annotations'
    simulated clock is the metrics' (the clock TAQO scores plans on), on
    every corpus query and in both engines."""
    db, orca = corpus_orca
    result = orca.optimize(query.sql)
    execution = Executor(
        Cluster(db, segments=8), execution_mode=mode
    ).execute(result.plan, result.output_cols, analyze=True)
    assert_exclusive_sums_exactly(result.plan, execution)
    assert (
        execution.analysis.simulated_seconds()
        == execution.metrics.simulated_seconds()
    )


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


def assert_taqo_actuals_are_annotations(report, cluster, output_cols):
    """Every sampled plan's TAQO actual is the simulated clock of its own
    EXPLAIN ANALYZE annotations, float-identically."""
    assert report.samples
    for sample in report.samples:
        analysis = Executor(cluster).execute(
            sample.plan, output_cols, analyze=True
        ).analysis
        assert sample.actual_seconds == analysis.simulated_seconds()


class TestTaqoFromAnnotations:
    """TAQO (Section 6.2) scores sampled plans, the chosen one and the
    rest, on the clock EXPLAIN ANALYZE annotates them with."""

    def test_matches_run_taqo_exactly(self, small_db):
        orca = Orca(small_db, config=OptimizerConfig(segments=8))
        result = orca.optimize(SQL)
        cluster = Cluster(small_db, segments=8)
        report = run_taqo(
            result.memo, required_props(result), cluster,
            output_cols=result.output_cols, n=12, seed=42,
        )
        assert len(report.samples) > 1
        assert_taqo_actuals_are_annotations(
            report, cluster, result.output_cols
        )

    def test_matches_on_tpcds_corpus(self, tpcds_db):
        """The same identity over real TPC-DS-style workload queries."""
        orca = Orca(tpcds_db, config=OptimizerConfig(segments=8))
        cluster = Cluster(tpcds_db, segments=8)
        compared = 0
        for query in QUERIES:
            if compared == 3:
                break
            result = orca.optimize(query.sql)
            if result.query.cte_defs:
                continue  # sampled CTE plans need producer wiring
            report = run_taqo(
                result.memo, required_props(result), cluster,
                output_cols=result.output_cols, n=6, seed=42,
            )
            assert_taqo_actuals_are_annotations(
                report, cluster, result.output_cols
            )
            compared += 1
        assert compared == 3
