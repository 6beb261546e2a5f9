"""Tracer unit tests and trace-invariant tests.

The invariant tests run real optimizations with a live tracer and check
the trace's internal consistency against optimizer ground truth: spans
balance, job counts match the scheduler's records, Memo creation events
match the Memo's own accounting.
"""

from __future__ import annotations

import json

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.trace import EVENT_KINDS, NULL_TRACER, Tracer

from tests.conftest import make_small_db
from tests.helpers import check_span_consistency, current_span_id, events_of

TRACED_QUERIES = [
    "SELECT a, b FROM t1 WHERE b > 10 ORDER BY a, b LIMIT 20",
    "SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a AND t1.b < 50 "
    "ORDER BY t1.a, t2.b LIMIT 20",
    "SELECT c, count(*) AS n, sum(b) AS s FROM t1 GROUP BY c ORDER BY c",
    "SELECT a FROM t1 WHERE a IN (SELECT b FROM t2 WHERE t2.a < 400) "
    "ORDER BY a LIMIT 30",
    "SELECT a, b FROM t1 WHERE EXISTS "
    "(SELECT 1 FROM t2 WHERE t2.b = t1.a) ORDER BY a, b LIMIT 30",
]


# ----------------------------------------------------------------------
# Tracer unit behavior
# ----------------------------------------------------------------------
class TestTracer:
    def test_record_counts(self):
        tracer = Tracer()
        tracer.record("group_created", group=0)
        tracer.record("group_created", group=1)
        tracer.record("xform_applied", rule="R")
        assert tracer.count("group_created") == 2
        assert tracer.count("xform_applied") == 1
        assert tracer.count("missing") == 0
        assert len(events_of(tracer, "group_created")) == 2

    def test_span_aggregates_time(self):
        tracer = Tracer()
        with tracer.span("parse"):
            pass
        with tracer.span("parse"):
            pass
        assert tracer.stage_counts["parse"] == 2
        assert tracer.stage_times["parse"] >= 0.0
        assert tracer.count("stage_start") == 2
        assert tracer.count("stage_end") == 2
        assert check_span_consistency(tracer) == []

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.count("stage_end") == 1
        assert check_span_consistency(tracer) == []

    def test_job_kind_aggregation(self):
        tracer = Tracer()
        tracer.record("job_done", job_kind="Xform", seconds=0.5)
        tracer.record("job_done", job_kind="Xform", seconds=0.25)
        tracer.record("job_done", job_kind="Opt(g,req)", seconds=0.1)
        assert tracer.job_kind_counts == {"Xform": 2, "Opt(g,req)": 1}
        assert tracer.job_kind_times["Xform"] == pytest.approx(0.75)

    def test_capture_events_off_keeps_aggregates(self):
        tracer = Tracer(capture_events=False)
        with tracer.span("s"):
            tracer.record("group_created", group=0)
        assert tracer.events == []
        assert tracer.count("group_created") == 1
        assert tracer.stage_counts["s"] == 1

    def test_to_json_carries_the_buffer(self):
        tracer = Tracer()
        with tracer.span("parse"):
            tracer.record("group_created", group=7)
        tracer.record("job_done", job_kind="Xform", seconds=0.125)
        payload = json.loads(tracer.to_json())
        assert payload["counters"] == tracer.counters
        assert payload["stages"]["parse"]["count"] == 1
        assert payload["job_kinds"]["Xform"] == {
            "count": 1, "seconds": 0.125,
        }
        assert [e["kind"] for e in payload["events"]] == [
            e.kind for e in tracer.events
        ]
        (created,) = [
            e for e in payload["events"] if e["kind"] == "group_created"
        ]
        assert created["data"]["group"] == 7
        # to_json is valid JSON with the documented top-level shape.
        assert payload["version"] == 1
        assert set(payload) == {
            "version", "trace_id", "counters", "stages", "job_kinds",
            "events", "spans",
        }

    def test_summary_is_tabular(self):
        tracer = Tracer()
        with tracer.span("parse"):
            pass
        tracer.record("job_done", job_kind="Xform", seconds=0.0)
        text = tracer.summary()
        assert "optimizer trace" in text
        assert "parse" in text
        assert "Xform" in text

    def test_unbalanced_spans_detected(self):
        tracer = Tracer()
        tracer.record("stage_start", stage="s")
        assert check_span_consistency(tracer) == ["unclosed stage_start: s"]
        tracer2 = Tracer()
        tracer2.record("stage_end", stage="s")
        assert check_span_consistency(tracer2) == [
            "stage_end without stage_start: s"
        ]

    def test_threads_keep_their_own_span_stacks_and_exact_counts(
        self, eager_thread_switching
    ):
        """A traced fleet serves client threads at the same time on one
        tracer: spans open in two threads at once must not parent (or
        pop) each other, and the aggregates must not lose an update."""
        import threading

        tracer = Tracer()
        threads, events = 2, 2000
        inside = threading.Barrier(threads)
        roots: dict[int, tuple] = {}

        def client(slot: int) -> None:
            with tracer.span("request", client=slot) as root:
                inside.wait(timeout=10)  # both roots are open right now
                with tracer.span("child") as child:
                    assert current_span_id(tracer) == child.span_id
                    for _ in range(events):
                        tracer.record("job_done", job_kind="Xform", seconds=1.0)
                assert current_span_id(tracer) == root.span_id
                roots[slot] = (root, child)

        pool = [threading.Thread(target=client, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)

        assert current_span_id(tracer) is None
        for root, child in roots.values():
            assert root.parent_id is None
            assert child.parent_id == root.span_id
        assert len(tracer.spans) == 2 * threads
        assert tracer.stage_counts == {"child": threads, "request": threads}
        assert tracer.count("stage_start") == tracer.count("stage_end") == 2 * threads
        assert tracer.count("job_done") == threads * events
        assert tracer.job_kind_counts == {"Xform": threads * events}
        assert tracer.job_kind_times["Xform"] == threads * events * 1.0
        assert len(tracer.events) == threads * (events + 4)
        assert check_span_consistency(tracer) == []


class TestEventKinds:
    def test_declared_kinds_are_exactly_the_recorded_ones(self):
        """``EVENT_KINDS`` lists what the built-in instrumentation
        produces: every string literal in the kind handed to ``record(``
        anywhere under ``src/repro``, no more, no less."""
        import ast
        from pathlib import Path

        import repro

        recorded = set()
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"
                    and node.args
                ):
                    recorded.update(
                        part.value for part in ast.walk(node.args[0])
                        if isinstance(part, ast.Constant)
                        and isinstance(part.value, str)
                    )
        assert recorded == EVENT_KINDS

    def test_every_counted_event_is_a_declared_kind(self):
        from repro.telemetry.families import EVENT_METRICS
        from repro.trace import FLIGHT_EVENT_KINDS

        assert set(EVENT_METRICS) <= EVENT_KINDS
        assert FLIGHT_EVENT_KINDS <= EVENT_KINDS


class TestNullTracer:
    def test_everything_is_noop(self):
        """The front with no sinks: every verb returns at once and the
        buffer it never writes stays empty."""
        tracer = NULL_TRACER
        assert not tracer.enabled
        assert tracer.flight is None and tracer.registry is None
        tracer.record("group_created", group=0)
        with tracer.span("parse") as span:
            assert span is None
        assert tracer.span("a") is tracer.span("b")  # one shared no-op
        tracer.inc("queries_total", plan_source="orca")
        tracer.observe("optimization_seconds", 0.5)
        tracer.set_gauge("fleet_workers", 2)
        assert tracer.count("group_created") == 0
        assert events_of(tracer, "group_created") == []
        payload = tracer.to_dict()
        assert payload["trace_id"] is None
        assert not (
            payload["counters"] or payload["stages"] or payload["events"]
            or payload["spans"] or payload["job_kinds"]
        )
        assert tracer.summary() == "=== optimizer trace ==="

    def test_untraced_optimization_carries_null_tracer(self):
        db = make_small_db(t1_rows=300, t2_rows=60)
        result = Orca(db, config=OptimizerConfig(segments=4)).optimize(
            "SELECT a FROM t1 ORDER BY a LIMIT 5"
        )
        assert result.trace is NULL_TRACER


# ----------------------------------------------------------------------
# Trace invariants over real optimizations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_runs():
    """Optimize + execute each query with a fresh tracer."""
    db = make_small_db(t1_rows=1500, t2_rows=300)
    cluster = Cluster(db, segments=8)
    runs = []
    for sql in TRACED_QUERIES:
        tracer = Tracer()
        orca = Orca(db, config=OptimizerConfig(segments=8), tracer=tracer)
        result = orca.optimize(sql)
        out = Executor(cluster, tracer=tracer).execute(
            result.plan, result.output_cols
        )
        runs.append((sql, tracer, result, out))
    return runs


class TestTraceInvariants:
    def test_spans_balance(self, traced_runs):
        for sql, tracer, _result, _out in traced_runs:
            assert check_span_consistency(tracer) == [], sql

    def test_pipeline_stages_present(self, traced_runs):
        expected = {
            "parse", "translate", "normalize", "copy_in",
            "search:default", "extract", "execute",
        }
        for sql, tracer, _result, _out in traced_runs:
            assert expected <= set(tracer.stage_counts), sql

    def test_job_done_matches_jobs_executed(self, traced_runs):
        for sql, tracer, result, _out in traced_runs:
            assert tracer.count("job_done") == result.search_stats.jobs_executed, sql

    def test_job_kind_mix_matches_scheduler(self, traced_runs):
        for sql, tracer, result, _out in traced_runs:
            assert tracer.job_kind_counts == result.search_stats.kind_counts, sql

    def test_xform_events_match_xform_count(self, traced_runs):
        for sql, tracer, result, _out in traced_runs:
            assert tracer.count("xform_applied") == result.search_stats.xform_count, sql

    def test_memo_creation_events_match_memo(self, traced_runs):
        """group/gexpr creation events equal the Memo's own accounting
        (these queries produce no shared-CTE side Memos)."""
        for sql, tracer, result, _out in traced_runs:
            memo = result.memo
            assert tracer.count("group_created") == len(memo.groups), sql
            assert tracer.count("gexpr_added") == memo._next_gexpr_id, sql

    def test_property_requests_cover_contexts(self, traced_runs):
        """One property_request event per distinct (group, req) context."""
        for sql, tracer, result, _out in traced_runs:
            contexts = sum(
                len(g.contexts) for g in result.memo.live_groups()
            )
            assert tracer.count("property_request") >= contexts, sql

    def test_operator_executed_covers_plan(self, traced_runs):
        for sql, tracer, result, _out in traced_runs:
            n_nodes = len(list(result.plan.walk()))
            # Correlated plans re-execute inner subtrees, so >= not ==.
            assert tracer.count("operator_executed") >= n_nodes, sql
            assert tracer.count("execution_metrics") == 1, sql

    def test_cost_events_recorded(self, traced_runs):
        for sql, tracer, _result, _out in traced_runs:
            assert tracer.count("cost_computed") > 0, sql

    def test_trace_rides_on_result(self, traced_runs):
        for _sql, tracer, result, _out in traced_runs:
            assert result.trace is tracer

    def test_summary_renders(self, traced_runs):
        _sql, tracer, _result, _out = traced_runs[0]
        text = tracer.summary()
        assert "search:default" in text
        assert "Opt(gexpr,req)" in text


# ----------------------------------------------------------------------
# AMPERe embedding
# ----------------------------------------------------------------------
class TestAmpereTraceEmbedding:
    def test_dump_embeds_and_reloads_trace(self, tmp_path):
        from repro.verify.ampere import AMPEReDump, capture_dump

        db = make_small_db(t1_rows=400, t2_rows=80)
        config = OptimizerConfig(segments=4)
        tracer = Tracer()
        result = Orca(db, config=config, tracer=tracer).optimize(
            "SELECT a FROM t1 WHERE b > 3 ORDER BY a LIMIT 10"
        )
        dump = capture_dump(
            db, "SELECT a FROM t1 WHERE b > 3 ORDER BY a LIMIT 10",
            config, expected_plan=result.plan, trace=result.trace,
        )
        assert dump.trace_json is not None
        path = tmp_path / "dump.dxl"
        dump.save(path)
        reloaded = AMPEReDump.load(path)
        assert reloaded.trace_json is not None
        payload = json.loads(reloaded.trace_json)
        assert payload["counters"] == tracer.counters
        assert {
            stage: agg["count"] for stage, agg in payload["stages"].items()
        } == tracer.stage_counts

    def test_untraced_dump_has_no_trace(self):
        from repro.verify.ampere import capture_dump

        db = make_small_db(t1_rows=200, t2_rows=40)
        dump = capture_dump(
            db, "SELECT a FROM t1 LIMIT 1", OptimizerConfig(segments=4),
            trace=NULL_TRACER,
        )
        assert dump.trace_json is None
