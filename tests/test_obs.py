"""Observability layer tests: spans, exporter, flight recorder, slow log.

Single-process coverage of ``repro.obs`` and its wiring into the
tracer, the session facade, the fault injector, the fused engine, and
the CLI.  The three satellites pinned here:

- **Determinism** — tracing on (Tracer or FlightRecorder) vs. off
  yields bit-identical plans and job counts.
- **Timestamps** — span/event times are monotonic deltas, never
  negative, never wall-clock epochs.
- **Flight dumps** — every fatal fault-site kind (``kill``, ``wedge``)
  writes the black box to disk before the process dies.

Multi-process stitching lives in ``tests/test_obs_fleet.py``.
"""

from __future__ import annotations

import io
import json
import os
from types import SimpleNamespace

import pytest

import repro
from repro.config import OptimizerConfig
from repro.obs import (
    FlightRecorder,
    SlowQueryLog,
    Span,
    chrome_trace,
    load_flight_dump,
    tracer_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.flight import MAX_EVENTS_PER_RECORD
from repro.obs.spans import new_span_id, new_trace_id
from repro.service import connect
from repro.service.faults import FAULT_SITES, FaultInjector, FaultSpec
from repro.errors import TelemetryError
from repro.telemetry import MetricsRegistry, QueryStatsStore
from repro.trace import NULL_TRACER, Tracer

from tests.conftest import make_small_db

Q_JOIN = ("SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a "
          "AND t1.b < 50 ORDER BY t1.a, t2.b LIMIT 20")
Q_AGG = "SELECT c, count(*) AS n, sum(b) AS s FROM t1 GROUP BY c ORDER BY c"


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpan:
    def test_ids_are_fresh_hex(self):
        assert new_trace_id() != new_trace_id()
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_span_id(), 16)  # hex

    def test_roundtrip(self):
        span = Span(name="parse", span_id="ab" * 4, parent_id="cd" * 4,
                    start=0.5, end=0.75, data={"worker": 1})
        back = Span.from_dict(span.to_dict())
        assert back == span
        assert back.duration == pytest.approx(0.25)

    def test_empty_data_omitted_from_dict(self):
        span = Span(name="s", span_id="0" * 8)
        assert "data" not in span.to_dict()

    def test_shifted_rebases_both_ends(self):
        span = Span(name="s", span_id="0" * 8, start=0.1, end=0.2)
        moved = span.shifted(1.0)
        assert moved.start == pytest.approx(1.1)
        assert moved.end == pytest.approx(1.2)
        assert moved.duration == pytest.approx(span.duration)

    def test_duration_never_negative(self):
        assert Span(name="s", span_id="0" * 8, start=2.0, end=1.0).duration == 0.0


class TestTracerSpans:
    def test_nested_spans_carry_parentage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current_span_id == outer.span_id
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.current_span_id is None
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_stage_events_carry_span_ids(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        (start,) = tracer.events_of("stage_start")
        (end,) = tracer.events_of("stage_end")
        assert start.data["span_id"] == end.data["span_id"]
        assert start.data["parent_id"] is None

    def test_timestamps_are_monotonic_deltas(self):
        """The satellite fix: times are monotonic offsets from the
        tracer's origin — small non-negative floats, not epoch seconds."""
        tracer = Tracer()
        with tracer.span("a"):
            tracer.record("group_created", group=0)
        for event in tracer.events:
            assert 0.0 <= event.t < 60.0
        for span in tracer.spans:
            assert 0.0 <= span.start <= span.end < 60.0
        assert 0.0 <= tracer.now() < 60.0

    def test_adopt_spans_rebases_and_reparents(self):
        tracer = Tracer()
        with tracer.span("fleet:optimize") as req:
            base = tracer.now()
            remote = [
                Span(name="worker:optimize", span_id="aa" * 4,
                     start=0.0, end=0.5).to_dict(),
                Span(name="parse", span_id="bb" * 4, parent_id="aa" * 4,
                     start=0.1, end=0.2).to_dict(),
            ]
            adopted = tracer.adopt_spans(
                remote, base=base, process="worker-0",
                parent_id=req.span_id,
            )
        root, child = adopted
        # Orphan spans hang off the local request span; parented spans keep
        # their remote parent.
        assert root.parent_id == req.span_id
        assert child.parent_id == "aa" * 4
        assert root.start >= base
        assert all(s.data["process"] == "worker-0" for s in adopted)
        assert all(any(s is t for t in tracer.spans) for s in adopted)

    def test_trace_id_survives_json_roundtrip(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        restored = Tracer.from_json(tracer.to_json())
        assert restored.trace_id == tracer.trace_id
        assert [s.name for s in restored.spans] == ["s"]

    def test_null_tracer_span_api(self):
        tracer = NULL_TRACER
        with tracer.span("s", anything=1):
            assert tracer.current_span_id is None
        assert tracer.current_span_id is None
        assert tracer.trace_id is None
        assert tracer.spans == []


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeExport:
    def traced(self):
        db = make_small_db(t1_rows=400, t2_rows=80)
        tracer = Tracer()
        session = connect(db, tracer=tracer, segments=4)
        session.execute("SELECT a FROM t1 WHERE b > 3 ORDER BY a LIMIT 10")
        return tracer

    def test_real_trace_exports_valid(self):
        tracer = self.traced()
        payload = tracer_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        assert validate_chrome_trace(json.dumps(payload)) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"parse", "search:default", "execute"} <= names

    def test_events_carry_trace_id_and_microseconds(self):
        tracer = self.traced()
        payload = tracer_chrome_trace(tracer)
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert event["args"]["trace_id"] == tracer.trace_id
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_processes_get_distinct_pids(self):
        spans = [
            Span(name="local", span_id="a" * 8, end=0.1),
            Span(name="remote", span_id="b" * 8, end=0.2,
                 data={"process": "worker-0"}),
        ]
        payload = chrome_trace(spans)
        meta = {e["args"]["name"]: e["pid"]
                for e in payload["traceEvents"] if e["ph"] == "M"}
        assert meta["orchestrator"] == 1
        assert meta["worker-0"] == 2
        by_name = {e["name"]: e for e in payload["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["local"]["pid"] == 1
        assert by_name["remote"]["pid"] == 2

    def test_validator_rejects_malformed(self):
        assert validate_chrome_trace("not json")[0].startswith("not valid")
        assert validate_chrome_trace({}) == ["missing traceEvents list"]
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": "late", "pid": 1, "tid": 1},
        ]})
        assert any("ts is not numeric" in p for p in problems)
        assert any("missing numeric dur" in p for p in problems)
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1},
        ]})
        assert any("negative dur" in p for p in problems)


# ----------------------------------------------------------------------
# Histogram quantiles (the serve-report satellite's substrate)
# ----------------------------------------------------------------------
class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 3.0):
            hist.observe(v)
        assert hist.quantile(0.5) == pytest.approx(2.0)
        assert hist.quantile(0.25) == pytest.approx(1.0)
        assert hist.quantile(1.0) == pytest.approx(4.0)
        # The registry-level helper sees the same series.
        assert registry.quantile("lat", 0.5) == pytest.approx(2.0)

    def test_overflow_clamps_to_last_bound(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0,))
        hist.observe(100.0)
        assert hist.quantile(0.99) == 1.0

    def test_empty_returns_none(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0,))
        assert hist.quantile(0.5) is None
        assert registry.quantile("lat", 0.5) is None
        assert registry.quantile("never_registered", 0.5) is None

    def test_bad_q_raises(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0,))
        with pytest.raises(TelemetryError):
            hist.quantile(0.0)
        with pytest.raises(TelemetryError):
            hist.quantile(1.5)

    def test_registry_quantile_on_counter_is_none(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        assert registry.quantile("hits", 0.5) is None


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.begin(f"q{i}")
            recorder.end()
        assert [r.name for r in recorder.records] == ["q2", "q3", "q4"]

    def test_begin_auto_ends_lingering_record(self):
        recorder = FlightRecorder()
        recorder.begin("a")
        recorder.begin("b")
        assert [r.name for r in recorder.records] == ["a"]
        assert recorder.records[0].finished
        assert recorder.current.name == "b"

    def test_tracer_fast_path_is_disabled(self):
        recorder = FlightRecorder()
        tracer = recorder.tracer
        assert isinstance(tracer, Tracer) and tracer.flight is recorder
        assert tracer.enabled is False
        # Guarded hot-path sites never fire; unguarded record() is inert
        # with no record open.
        tracer.record("group_created", group=0)
        with tracer.span("s") as span:
            assert span is None
        assert len(recorder.records) == 0
        assert recorder.current is None

    def test_spans_and_notes_attach_to_open_record(self):
        recorder = FlightRecorder()
        record = recorder.begin("q", trace_id="t" * 16, parent_span_id="p" * 8)
        assert recorder.tracer.trace_id == "t" * 16
        assert recorder.tracer.current_span_id == "p" * 8
        with recorder.tracer.span("outer") as outer:
            assert outer.parent_id == "p" * 8
            with recorder.tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            recorder.tracer.record("fault_injected", site="costing")
        recorder.end()
        assert [s.name for s in record.spans] == ["inner", "outer"]
        assert record.events[0]["kind"] == "fault_injected"
        assert record.finished and record.duration >= 0.0
        assert all(s.start >= 0.0 and s.end >= s.start for s in record.spans)

    def test_events_per_record_are_bounded(self):
        recorder = FlightRecorder()
        record = recorder.begin("q")
        for i in range(MAX_EVENTS_PER_RECORD + 10):
            recorder.tracer.record("fault_injected", i=i)
        assert len(record.events) == MAX_EVENTS_PER_RECORD

    def test_dump_without_dir_is_noop(self):
        recorder = FlightRecorder()
        recorder.begin("q")
        assert recorder.dump("manual") is None
        assert recorder.dumps == []

    def test_dump_roundtrip_includes_in_flight(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path), worker="worker-0")
        recorder.begin("done")
        recorder.end()
        recorder.begin("inflight")
        with recorder.tracer.span("search"):
            pass
        path = recorder.dump("governor_trip")
        assert path is not None and os.path.exists(path)
        dump = load_flight_dump(path)
        assert dump["reason"] == "governor_trip"
        assert dump["worker"] == "worker-0"
        assert dump["in_flight"]["name"] == "inflight"
        assert [s["name"] for s in dump["in_flight"]["spans"]] == ["search"]
        assert [r["name"] for r in dump["records"]] == ["done"]

    def test_session_records_every_query(self):
        db = make_small_db(t1_rows=400, t2_rows=80)
        recorder = FlightRecorder()
        session = connect(db, flight_recorder=recorder, segments=4)
        session.optimize(Q_AGG)
        session.execute("SELECT a FROM t1 ORDER BY a LIMIT 5")
        assert len(recorder.records) == 2
        assert recorder.current is None
        for record in recorder.records:
            assert record.spans, record.name
            assert record.meta["session"] == "session"
            assert record.finished
        # execute() owns ONE record covering its inner optimize too.
        names = {s.name for s in recorder.records[1].spans}
        assert "search:default" in names and "execute" in names


# ----------------------------------------------------------------------
# Flight dumps at every fatal fault site
# ----------------------------------------------------------------------
class _Exit(BaseException):
    pass


class TestFaultSiteDumps:
    """The injector writes the black box before kill/wedge takes the
    process down — one dump per fault-site kind."""

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_kill_dumps_before_exit(self, site, tmp_path, monkeypatch):
        import repro.service.faults as faults_mod

        def fake_exit(code):
            raise _Exit(code)

        monkeypatch.setattr(faults_mod.os, "_exit", fake_exit)
        recorder = FlightRecorder(dump_dir=str(tmp_path), worker="w")
        injector = FaultInjector([FaultSpec(site=site, kind="kill", at=1)],
                                 tracer=recorder.tracer)
        recorder.begin("victim query")
        with pytest.raises(_Exit):
            injector.fire(site)
        (path,) = recorder.dumps
        dump = load_flight_dump(path)
        assert dump["reason"] == f"fault_kill_{site}"
        assert dump["in_flight"]["name"] == "victim query"
        # The fault itself landed in the black box before the "crash".
        assert dump["in_flight"]["events"][0]["kind"] == "fault_injected"
        assert dump["in_flight"]["events"][0]["data"]["site"] == site

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_wedge_dumps_before_hanging(self, site, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        injector = FaultInjector([
            FaultSpec(site=site, kind="wedge", at=1, delay_seconds=0.001),
        ], tracer=recorder.tracer)
        recorder.begin("q")
        injector.fire(site)  # "hangs" for 1ms, dump already written
        (path,) = recorder.dumps
        assert load_flight_dump(path)["reason"] == f"fault_wedge_{site}"

    def test_session_wires_injector_to_recorder(self, tmp_path):
        db = make_small_db(t1_rows=300, t2_rows=60)
        recorder = FlightRecorder(dump_dir=str(tmp_path))
        injector = FaultInjector()
        connect(db, flight_recorder=recorder, faults=injector, segments=4)
        assert injector.tracer.flight is recorder


# ----------------------------------------------------------------------
# Slow-query log
# ----------------------------------------------------------------------
class TestSlowQueryLog:
    def make(self, **kwargs):
        stream = io.StringIO()
        kwargs.setdefault("stream", stream)
        return SlowQueryLog(**kwargs), stream

    def test_threshold_trigger(self):
        log, stream = self.make(threshold_ms=10.0)
        assert log.observe(sql="SELECT 1", seconds=0.005) is None
        payload = log.observe(sql="SELECT 2", seconds=0.5)
        assert payload["reason"] == "threshold"
        assert payload["duration_ms"] == pytest.approx(500.0)
        assert log.observed == 2
        assert log.records == [payload]
        line = stream.getvalue().strip()
        parsed = json.loads(line)
        assert parsed["event"] == "slow_query"
        assert parsed["level"] == "WARNING"
        assert parsed["reason"] == "threshold"
        assert parsed["sql"] == "SELECT 2"

    def test_regression_trigger_against_baseline(self):
        log, _ = self.make()
        baseline = SimpleNamespace(calls=3, mean_opt_seconds=0.010)
        payload = log.observe(
            sql="q", seconds=0.1, opt_seconds=0.05, baseline=baseline,
            fingerprint="abc", trace_id="t" * 16,
        )
        assert payload["reason"] == "regression"
        assert payload["baseline_mean_ms"] == pytest.approx(10.0)
        assert payload["baseline_calls"] == 3
        assert payload["fingerprint"] == "abc"
        assert payload["trace_id"] == "t" * 16

    def test_regression_needs_enough_baseline_calls(self):
        log, _ = self.make()
        thin = SimpleNamespace(calls=1, mean_opt_seconds=0.001)
        assert log.observe(sql="q", seconds=1.0, opt_seconds=0.5,
                           baseline=thin) is None

    def test_regression_respects_noise_floor(self):
        log, _ = self.make(min_duration_ms=5.0)
        baseline = SimpleNamespace(calls=5, mean_opt_seconds=0.0001)
        # 10x regression, but 1ms < the 5ms floor: stay quiet.
        assert log.observe(sql="q", seconds=0.001, opt_seconds=0.001,
                           baseline=baseline) is None

    def test_both_reasons_combine(self):
        log, _ = self.make(threshold_ms=1.0)
        baseline = SimpleNamespace(calls=3, mean_opt_seconds=0.001)
        payload = log.observe(sql="q", seconds=0.5, opt_seconds=0.5,
                              baseline=baseline)
        assert payload["reason"] == "threshold+regression"

    def test_rich_payload_fields(self):
        log, stream = self.make(threshold_ms=0.0)
        payload = log.observe(
            sql="q", seconds=0.2, opt_seconds=0.15, exec_seconds=0.05,
            phases={"parse": 0.001, "search:default": 0.1},
            plan_source="orca", q_error=2.3456789, session="s1",
        )
        assert payload["opt_ms"] == pytest.approx(150.0)
        assert payload["exec_ms"] == pytest.approx(50.0)
        assert payload["phases_ms"]["search:default"] == pytest.approx(100.0)
        assert payload["plan_source"] == "orca"
        assert payload["q_error"] == pytest.approx(2.3457)
        assert json.loads(stream.getvalue())["session"] == "s1"

    def test_logger_is_freestanding(self):
        import logging

        log, _ = self.make(threshold_ms=0.0)
        assert log.logger is not logging.getLogger("repro.slowlog")
        assert log.logger.parent is None


class TestSessionSlowLog:
    @pytest.fixture()
    def db(self):
        return make_small_db(t1_rows=400, t2_rows=80)

    def test_execute_observes_exactly_once(self, db):
        log = SlowQueryLog(threshold_ms=0.0, stream=io.StringIO())
        session = connect(db, slow_log=log, segments=4)
        session.execute(Q_AGG, analyze=True)
        assert log.observed == 1
        (payload,) = log.records
        assert payload["reason"] == "threshold"
        assert payload["plan_source"] == "orca"
        assert payload["opt_ms"] > 0.0
        assert "exec_ms" in payload
        assert payload["q_error"] >= 1.0
        assert payload["session"] == "session"
        assert "search:default" not in (payload.get("phases_ms") or {})

    def test_optimize_observes_with_phases_under_tracer(self, db):
        log = SlowQueryLog(threshold_ms=0.0, stream=io.StringIO())
        session = connect(db, slow_log=log, tracer=Tracer(), segments=4)
        session.optimize(Q_AGG)
        (payload,) = log.records
        assert payload["trace_id"] == session.tracer.trace_id
        assert "search:default" in payload["phases_ms"]
        assert "exec_ms" not in payload

    def test_flight_recorder_supplies_trace_id(self, db):
        log = SlowQueryLog(threshold_ms=0.0, stream=io.StringIO())
        recorder = FlightRecorder()
        session = connect(db, slow_log=log, flight_recorder=recorder,
                          segments=4)
        session.optimize("SELECT a FROM t1 ORDER BY a LIMIT 3")
        (payload,) = log.records
        assert payload["trace_id"] == recorder.records[0].trace_id

    def test_regression_fires_via_stats_store(self, db):
        log = SlowQueryLog(min_duration_ms=0.0, stream=io.StringIO())
        store = QueryStatsStore()
        session = connect(db, slow_log=log, stats_store=store, segments=4)
        sql = "SELECT a FROM t1 WHERE b > 3 ORDER BY a LIMIT 7"
        session.optimize(sql)
        session.optimize(sql)
        assert log.records == []  # baseline still forming
        # Make the baseline artificially fast so call 3 is a "regression".
        stats = store.lookup(sql)
        assert stats is not None and stats.calls == 2
        stats.total_opt_seconds = 1e-9
        session.optimize(sql)
        (payload,) = log.records
        assert payload["reason"] == "regression"
        assert payload["baseline_calls"] == 2

    def test_quiet_when_nothing_slow(self, db):
        log = SlowQueryLog(threshold_ms=60_000.0, stream=io.StringIO())
        session = connect(db, slow_log=log, segments=4)
        session.execute("SELECT a FROM t1 ORDER BY a LIMIT 3")
        assert log.records == []
        assert log.observed == 1


# ----------------------------------------------------------------------
# Determinism: tracing on/off is invisible to the optimizer
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    QUERIES = [
        Q_JOIN,
        Q_AGG,
        "SELECT a FROM t1 WHERE a IN (SELECT b FROM t2 WHERE t2.a < 400) "
        "ORDER BY a LIMIT 30",
    ]

    def run_one(self, db, sql, **session_kwargs):
        session = connect(db, segments=4, **session_kwargs)
        result = session.optimize(sql)
        return (
            result.plan.explain(),
            result.search_stats.jobs_executed,
            result.search_stats.num_groups,
            result.search_stats.kind_counts,
        )

    def test_tracer_and_flight_recorder_change_nothing(self):
        db = make_small_db(t1_rows=1000, t2_rows=200)
        for sql in self.QUERIES:
            plain = self.run_one(db, sql)
            traced = self.run_one(db, sql, tracer=Tracer())
            flight = self.run_one(db, sql,
                                  flight_recorder=FlightRecorder())
            assert traced == plain, sql
            assert flight == plain, sql

    def test_executed_rows_identical(self):
        db = make_small_db(t1_rows=1000, t2_rows=200)
        plain = connect(db, segments=4).execute(Q_JOIN)
        flight = connect(db, segments=4,
                         flight_recorder=FlightRecorder()).execute(Q_JOIN)
        assert flight.rows == plain.rows


# ----------------------------------------------------------------------
# Fused-engine trace events (satellite)
# ----------------------------------------------------------------------
class TestFusedTraceEvents:
    def test_segmentation_compile_and_scan_cache_events(self):
        db = make_small_db(t1_rows=1000, t2_rows=200)
        tracer = Tracer()
        session = connect(db, tracer=tracer, segments=4,
                          execution_mode="fused")
        session.execute(Q_JOIN)
        assert tracer.count("pipeline_segmented") >= 1
        seg = tracer.events_of("pipeline_segmented")[0].data
        assert seg["chains"] >= 1
        assert seg["fused_nodes"] >= seg["chains"]
        assert tracer.count("chain_compiled") >= 1
        compiled = tracer.events_of("chain_compiled")[0].data
        assert compiled["stages"] >= 1
        assert "fused:compile" in tracer.stage_counts
        assert tracer.count("scan_cache_miss") >= 1
        misses = tracer.count("scan_cache_miss")
        session.execute(Q_JOIN)  # same tables: scans now come from cache
        assert tracer.count("scan_cache_hit") >= 1
        assert tracer.count("scan_cache_miss") == misses

    def test_row_mode_emits_no_fused_events(self):
        db = make_small_db(t1_rows=400, t2_rows=80)
        tracer = Tracer()
        session = connect(db, tracer=tracer, segments=4,
                          execution_mode="row")
        session.execute(Q_AGG)
        assert tracer.count("pipeline_segmented") == 0
        assert tracer.count("chain_compiled") == 0


# ----------------------------------------------------------------------
# CLI: python -m repro trace
# ----------------------------------------------------------------------
class TestTraceCLI:
    SQL = ("SELECT d.d_year, count(*) AS n FROM date_dim d "
           "GROUP BY d.d_year ORDER BY d.d_year")

    def test_trace_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "trace.json")
        assert main(["trace", self.SQL, "--execute", "--out", out,
                     "--scale", "0.05", "--segments", "4"]) == 0
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert validate_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert "search:default" in names and "execute" in names
        assert "perfetto" in capsys.readouterr().out
