"""The metrics registry: families, exports, cardinality bounds, and the
guarantee that telemetry never changes what the optimizer does."""

from __future__ import annotations

import math

import pytest

import repro
from repro.config import OptimizerConfig
from repro.errors import TelemetryError
from repro.optimizer import Orca
from repro.telemetry import MetricsRegistry, parse_prometheus
from repro.telemetry.registry import MAX_LABEL_LENGTH, MAX_LABEL_VALUES
from repro.trace import NULL_TRACER, Tracer
from repro.verify.ampere import AMPEReDump, capture_dump, replay_dump


SQL = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 40 ORDER BY t1.a"


class TestCounters:
    def test_inc_and_value(self):
        m = MetricsRegistry()
        m.inc("queries_total")
        m.inc("queries_total", 2)
        assert m.value("queries_total") == 3

    def test_labeled_series_are_independent(self):
        m = MetricsRegistry()
        m.inc("queries_total", plan_source="orca")
        m.inc("queries_total", plan_source="orca")
        m.inc("queries_total", plan_source="cache")
        assert m.value("queries_total", plan_source="orca") == 2
        assert m.value("queries_total", plan_source="cache") == 1
        assert m.counter("queries_total").total() == 3

    def test_counters_cannot_decrease(self):
        m = MetricsRegistry()
        with pytest.raises(TelemetryError):
            m.inc("queries_total", -1)

    def test_type_conflict_is_an_error(self):
        m = MetricsRegistry()
        m.inc("x_total")
        with pytest.raises(TelemetryError):
            m.gauge("x_total")

    def test_invalid_metric_name_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(TelemetryError):
            m.inc("bad name!")


class TestGaugesAndHistograms:
    def test_gauge_set_inc_dec(self):
        m = MetricsRegistry()
        m.set_gauge("active_sessions", 4)
        m.gauge("active_sessions").inc()
        m.gauge("active_sessions").dec(2)
        assert m.value("active_sessions") == 3

    def test_histogram_buckets_sum_count(self):
        m = MetricsRegistry()
        h = m.histogram("opt_seconds", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(5.555)
        state = h.series[()]
        assert state["bucket_counts"] == [1, 1, 1]  # 5.0 overflows to +Inf


class TestCardinalityBounds:
    def test_raw_sql_label_value_is_refused(self):
        """The registry refuses unbounded identifiers as label values —
        above all raw SQL text, the classic cardinality bomb."""
        m = MetricsRegistry()
        raw_sql = (
            "SELECT ss.ss_item_sk, sum(ss.ss_sales_price) FROM store_sales ss "
            "JOIN date_dim d ON ss.ss_sold_date_sk = d.d_date_sk "
            "WHERE d.d_year = 2001 GROUP BY ss.ss_item_sk ORDER BY 2 DESC"
        )
        assert len(raw_sql) > MAX_LABEL_LENGTH
        with pytest.raises(TelemetryError, match="raw SQL"):
            m.inc("queries_total", query=raw_sql)

    def test_distinct_value_bound_enforced(self):
        m = MetricsRegistry()
        for i in range(MAX_LABEL_VALUES):
            m.inc("queries_total", shard=f"s{i}")
        with pytest.raises(TelemetryError, match="cardinality"):
            m.inc("queries_total", shard="one-too-many")

    def test_existing_values_stay_writable_at_the_bound(self):
        m = MetricsRegistry()
        for i in range(MAX_LABEL_VALUES):
            m.inc("x_total", k=f"v{i}")
        m.inc("x_total", k="v0")  # already seen: fine
        assert m.value("x_total", k="v0") == 2

    def test_invalid_label_name_rejected(self):
        m = MetricsRegistry()
        with pytest.raises(TelemetryError):
            m.counter("x_total").inc(**{"bad-name": "v"})


class TestPrometheusExport:
    def make_registry(self):
        m = MetricsRegistry()
        m.inc("queries_total", plan_source="orca")
        m.inc("queries_total", 3, plan_source="cache")
        m.set_gauge("active_sessions", 2)
        m.observe("opt_seconds", 0.02)
        m.observe("opt_seconds", 0.3)
        return m

    def test_export_parses_strictly(self):
        text = self.make_registry().to_prometheus()
        parsed = parse_prometheus(text)
        assert parsed["repro_queries_total"] == [
            ({"plan_source": "cache"}, 3.0),
            ({"plan_source": "orca"}, 1.0),
        ]
        assert parsed["repro_active_sessions"] == [({}, 2.0)]

    def test_histogram_triplet_present(self):
        parsed = parse_prometheus(self.make_registry().to_prometheus())
        assert parsed["repro_opt_seconds_count"] == [({}, 2.0)]
        assert parsed["repro_opt_seconds_sum"] == [({}, pytest.approx(0.32))]
        inf_buckets = [
            v for labels, v in parsed["repro_opt_seconds_bucket"]
            if labels["le"] == "+Inf"
        ]
        assert inf_buckets == [2.0]

    def test_help_and_type_lines(self):
        m = MetricsRegistry()
        m.counter("queries_total", help="Total queries").inc()
        text = m.to_prometheus()
        assert "# HELP repro_queries_total Total queries" in text
        assert "# TYPE repro_queries_total counter" in text

    def test_label_values_escaped(self):
        m = MetricsRegistry()
        m.inc("errors_total", code='quo"te\\path')
        parsed = parse_prometheus(m.to_prometheus())
        assert parsed["repro_errors_total"][0][0]["code"] == 'quo"te\\path'

    @pytest.mark.parametrize("bad", [
        "no_value_here",
        'metric{unterminated="x} 1',
        "metric{} not_a_number",
        "# TYPE metric flavor",
        "9starts_with_digit 1",
    ])
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(TelemetryError):
            parse_prometheus(f"good_metric 1\n{bad}\n")

    def test_histogram_missing_triplet_rejected(self):
        text = (
            "# TYPE h histogram\n"
            "h_count 2\n"
            "h_sum 0.5\n"  # no h_bucket series
        )
        with pytest.raises(TelemetryError, match="_bucket"):
            parse_prometheus(text)

    def test_special_values_parse(self):
        parsed = parse_prometheus("m_a +Inf\nm_b -Inf\nm_c NaN\n")
        assert parsed["m_a"] == [({}, math.inf)]
        assert parsed["m_b"] == [({}, -math.inf)]
        assert math.isnan(parsed["m_c"][0][1])


class TestJsonRoundTrip:
    def test_snapshot_round_trips_losslessly(self):
        m = MetricsRegistry()
        m.inc("queries_total", 7, plan_source="orca")
        m.set_gauge("active_sessions", 3, pool="p0")
        m.observe("opt_seconds", 0.04)
        m.observe("opt_seconds", 1.5)
        clone = MetricsRegistry.from_json(m.to_json())
        assert clone.snapshot() == m.snapshot()
        assert clone.to_prometheus() == m.to_prometheus()

    def test_empty_registry_round_trips(self):
        m = MetricsRegistry()
        assert MetricsRegistry.from_json(m.to_json()).snapshot() == m.snapshot()


class TestNullRegistry:
    """There is no disabled registry class: a front without a registry
    (``NULL_TRACER``, or any ``Tracer()``) drops the metric verbs."""

    def test_shared_singleton_is_disabled(self):
        assert NULL_TRACER.registry is None
        assert Tracer().registry is None
        assert Tracer.front() is NULL_TRACER

    def test_all_operations_are_noops(self):
        for front in (NULL_TRACER, Tracer()):
            front.inc("queries_total", plan_source="orca")
            front.set_gauge("g", 4)
            front.observe("h", 0.5)
            front.record("plan_cache_hit", key=1, rebound=True)
            assert front.registry is None
        assert parse_prometheus(MetricsRegistry().to_prometheus()) == {}

    def test_holds_no_state(self):
        """A front adds its registry to a copy; the tracer it was built
        from, and the shared sinkless one, stay as they were."""
        m = MetricsRegistry()
        front = Tracer.front(registry=m)
        front.inc("queries_total", plan_source="orca")
        front.record("plan_cache_hit", key=1, rebound=True)
        assert m.value("queries_total", plan_source="orca") == 1
        assert m.value("plan_cache_events_total", event="rebind") == 1
        assert front.registry is m and NULL_TRACER.registry is None
        assert NULL_TRACER.counters == {} and NULL_TRACER.events == []


class TestOptimizerInstrumentation:
    def test_disabled_telemetry_changes_nothing(self, small_db):
        """Acceptance: with telemetry disabled the optimizer runs the
        exact same search — identical job counts, Memo sizes and plan."""
        plain = Orca(small_db, config=OptimizerConfig(segments=8))
        instrumented = Orca(
            small_db,
            config=OptimizerConfig(segments=8),
            metrics=MetricsRegistry(),
        )
        a = plain.optimize(SQL)
        b = instrumented.optimize(SQL)
        assert a.search_stats.jobs_executed == b.search_stats.jobs_executed
        assert a.search_stats.kind_counts == b.search_stats.kind_counts
        assert a.search_stats.num_groups == b.search_stats.num_groups
        assert a.search_stats.num_gexprs == b.search_stats.num_gexprs
        assert repr(a.plan) == repr(b.plan)

    def test_search_counters_match_search_stats(self, small_db):
        m = MetricsRegistry()
        orca = Orca(small_db, config=OptimizerConfig(segments=8), metrics=m)
        result = orca.optimize(SQL)
        stats = result.search_stats
        assert m.counter("scheduler_jobs_total").total() == stats.jobs_executed
        for kind, count in stats.kind_counts.items():
            assert m.value("scheduler_jobs_total", kind=kind) == count
        assert m.value("search_groups_total") == stats.num_groups
        assert m.value("search_gexprs_total") == stats.num_gexprs
        assert m.value("search_pruned_alternatives_total") == \
            stats.pruned_alternatives

    def test_plan_cache_events_counted(self, small_db):
        m = MetricsRegistry()
        orca = Orca(
            small_db,
            config=OptimizerConfig(segments=8, enable_plan_cache=True),
            metrics=m,
        )
        orca.optimize(SQL)
        orca.optimize(SQL)
        events = m.counter("plan_cache_events_total")
        assert events.value(event="miss") == 1
        assert events.value(event="store") == 1
        assert events.value(event="hit") + events.value(event="rebind") == 1

    def test_sessions_passed_one_registry_keep_their_own_metrics(
        self, small_db
    ):
        """Sessions share a registry by being passed the same one: it
        sums their queries, while each keeps its own SessionMetrics."""
        registry = MetricsRegistry()
        a, b = (
            repro.connect(small_db, name=name, segments=4, telemetry=registry)
            for name in ("a", "b")
        )
        a.optimize(SQL)
        b.optimize(SQL)
        b.optimize(SQL)
        assert (a.metrics.queries, b.metrics.queries) == (1, 2)
        assert all(
            s.metrics.plan_sources == {"orca": s.metrics.queries}
            for s in (a, b)
        )
        assert registry.value("queries_total", plan_source="orca") == 3


class TestAmpereTelemetry:
    def test_snapshot_round_trips_through_dump(self, small_db, tmp_path):
        m = MetricsRegistry()
        orca = Orca(small_db, config=OptimizerConfig(segments=8), metrics=m)
        orca.optimize(SQL)
        dump = capture_dump(small_db, SQL, metrics=m)
        assert dump.metrics_json is not None

        path = tmp_path / "dump.dxl"
        dump.save(path)
        loaded = AMPEReDump.load(path)
        assert loaded.metrics_json == dump.metrics_json
        restored = MetricsRegistry.from_json(loaded.metrics_json)
        assert restored.snapshot() == m.snapshot()

    def test_disabled_metrics_not_embedded(self, small_db):
        dump = capture_dump(small_db, SQL, metrics=None)
        assert dump.metrics_json is None

    def test_replay_records_into_a_registry(self, small_db):
        dump = capture_dump(small_db, SQL)
        replay_metrics = MetricsRegistry()
        result = replay_dump(dump, metrics=replay_metrics)
        assert result.plan is not None
        assert replay_metrics.counter("scheduler_jobs_total").total() == \
            result.search_stats.jobs_executed
