"""Fleet-wide distributed tracing and flight-recorder forensics.

Multi-process acceptance tests for the observability tentpole:

- **Stitching** — one fleet query yields ONE trace: orchestrator
  request spans plus the worker's session/search/executor spans, all
  rebased onto the orchestrator's timeline under a single ``trace_id``,
  exportable as a valid Chrome-trace / Perfetto JSON payload.
- **Restart resilience** — tracing keeps stitching across a worker
  kill + respawn, and the restart itself lands in the trace.
- **Black box** — a chaos-killed or fault-killed worker leaves a
  flight-recorder dump on disk carrying the in-flight query's spans;
  wedges dump before they hang.

These spawn real worker processes; CI runs them in the fleet job, not
the tier-1 tests job (mirroring ``tests/test_fleet.py``).
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.obs import (
    load_flight_dump,
    tracer_chrome_trace,
    validate_chrome_trace,
)
from repro.service.faults import FaultSpec
from repro.trace import Tracer

from tests.conftest import make_small_db
from tests.helpers import FaultedFleet, events_of

Q1 = "SELECT a, b FROM t1 WHERE b = 42 ORDER BY a, b LIMIT 10"
Q2 = "SELECT count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.b < 100"
Q3 = "SELECT a FROM t2 WHERE b > 7 ORDER BY a"


@pytest.fixture(scope="module")
def fleet_db():
    return make_small_db(t1_rows=2000, t2_rows=300)


def make_fleet(db, **kwargs) -> repro.Fleet:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("request_timeout_seconds", 60.0)
    return repro.connect_fleet(db, **kwargs)


def flight_dumps(tmp_path, needle=""):
    return sorted(
        p for p in tmp_path.glob("flight-*.json") if needle in p.name
    )


# ----------------------------------------------------------------------
# One query, one stitched trace
# ----------------------------------------------------------------------
class TestStitchedTrace:
    def test_execute_spans_every_layer_under_one_trace_id(self, fleet_db):
        tracer = Tracer()
        with make_fleet(fleet_db, tracer=tracer, workers=2) as fleet:
            fleet.execute(Q2)

        names = {s.name for s in tracer.spans}
        # Orchestrator request span, worker request span, the worker
        # session's optimizer pipeline, and the executor.
        assert "fleet:execute" in names
        assert "worker:execute" in names
        assert any(n.startswith("search") for n in names)
        # Plan cache off (and a first sighting anyway): the text is parsed.
        assert {"parse", "execute"} <= names

        payload = tracer_chrome_trace(tracer)
        assert validate_chrome_trace(payload) == []
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in complete} == {tracer.trace_id}
        processes = {e["args"]["name"] for e in payload["traceEvents"]
                     if e["ph"] == "M"}
        assert "orchestrator" in processes
        assert any(p.startswith("worker-") for p in processes)

    def test_worker_spans_hang_off_the_request_span(self, fleet_db):
        tracer = Tracer()
        with make_fleet(fleet_db, tracer=tracer, workers=1) as fleet:
            fleet.optimize(Q1)

        req = next(s for s in tracer.spans if s.name == "fleet:optimize")
        root = next(s for s in tracer.spans if s.name == "worker:optimize")
        assert root.parent_id == req.span_id
        assert root.data["process"] == "worker-0"
        # Rebasing: adopted spans sit on the orchestrator's timeline,
        # inside the request window (modulo clock granularity).
        assert root.start >= req.start
        assert root.end <= req.end + 0.5
        # The worker's pipeline spans parent under its request span
        # (``parse`` is there: the plan cache is off).
        by_id = {s.span_id: s for s in tracer.spans}
        parse = next(s for s in tracer.spans if s.name == "parse")
        assert by_id[parse.parent_id].name == "worker:optimize"

    def test_a_repeated_text_has_no_parse_span(self, fleet_db):
        """With the plan cache on, a worker parses a text once: its first
        request's span tree has a ``parse`` span, every later one has
        none (absent, not zero-length) and goes straight to the lookup."""
        tracer = Tracer()
        with make_fleet(
            fleet_db, tracer=tracer, workers=1, enable_plan_cache=True
        ) as fleet:
            for _ in range(3):
                fleet.optimize(Q1)

        roots = [s for s in tracer.spans if s.name == "worker:optimize"]
        assert len(roots) == 3
        children = [
            sorted(s.name for s in tracer.spans if s.parent_id == root.span_id)
            for root in roots
        ]
        assert "parse" in children[0] and "plan_cache_lookup" in children[0]
        assert children[1] == children[2] == ["plan_cache_lookup"]

    def test_two_clients_keep_their_span_trees_apart(self, fleet_db):
        """Two client threads on one traced fleet, served at the same
        time: every worker span tree hangs off the request span of the
        thread that sent it — same kind, same worker — and no request
        span parents another."""
        import threading
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()
        rounds = 6
        barrier = threading.Barrier(2)

        def client(call, sql):
            barrier.wait(timeout=10)
            for _ in range(rounds):
                call(sql)

        with make_fleet(fleet_db, tracer=tracer, workers=2) as fleet, \
                ThreadPoolExecutor(max_workers=2) as clients:
            futures = [
                clients.submit(client, fleet.optimize, Q1),
                clients.submit(client, fleet.execute, Q2),
            ]
            for future in futures:
                future.result(timeout=60)

        assert validate_chrome_trace(tracer_chrome_trace(tracer)) == []
        by_id = {s.span_id: s for s in tracer.spans}
        requests = [s for s in tracer.spans if s.name.startswith("fleet:")]
        assert sorted(s.name for s in requests) == (
            ["fleet:execute"] * rounds + ["fleet:optimize"] * rounds
        )
        assert all(s.parent_id is None for s in requests)
        roots = [s for s in tracer.spans if s.name.startswith("worker:")]
        assert len(roots) == 2 * rounds
        for root in roots:
            request = by_id[root.parent_id]
            assert request.name == root.name.replace("worker:", "fleet:")
            assert request.data["worker"] == root.data["worker"]
        assert len({root.parent_id for root in roots}) == 2 * rounds
        # The execute client's pipeline spans never sit under an
        # optimize request, whichever worker served them.
        executed = [s for s in tracer.spans if s.name == "execute"]
        assert len(executed) == rounds
        for ancestor in executed:
            while ancestor.parent_id is not None:
                ancestor = by_id[ancestor.parent_id]
            assert ancestor.name == "fleet:execute"
        assert tracer.stage_counts["fleet:optimize"] == rounds
        assert tracer.stage_counts["fleet:execute"] == rounds

    def test_trace_payload_is_json_serializable(self, fleet_db):
        tracer = Tracer()
        with make_fleet(fleet_db, tracer=tracer, workers=1) as fleet:
            fleet.optimize(Q3)
        text = json.dumps(tracer_chrome_trace(tracer))
        assert validate_chrome_trace(text) == []

    def test_untraced_fleet_ships_no_span_payloads(self, fleet_db):
        """Without an orchestrator tracer there is no trace context, but
        workers still answer (spans ride the response either way)."""
        with make_fleet(fleet_db, workers=1) as fleet:
            result = fleet.optimize(Q1)
            assert result.plan_source in repro.PLAN_SOURCES


# ----------------------------------------------------------------------
# Stitching across a worker restart (satellite)
# ----------------------------------------------------------------------
class TestTraceAcrossRestart:
    def test_restart_lands_in_trace_and_stitching_continues(self, fleet_db):
        tracer = Tracer()
        with make_fleet(fleet_db, tracer=tracer, workers=2) as fleet:
            fleet.optimize(Q1)
            fleet.kill_worker(0)
            fleet.optimize(Q2)
            fleet.optimize(Q3)
            assert fleet.restarts_total == 1

        restarts = events_of(tracer, "fleet_restart")
        assert [e.data["worker"] for e in restarts] == [0]
        assert restarts[0].data["reason"] == "chaos_kill"
        assert restarts[0].data["incarnation"] == 1
        # Every query — before and after the kill — was stitched.
        worker_roots = [s for s in tracer.spans
                        if s.name == "worker:optimize"]
        assert len(worker_roots) == 3
        assert validate_chrome_trace(tracer_chrome_trace(tracer)) == []


# ----------------------------------------------------------------------
# Flight-recorder dumps from dying workers
# ----------------------------------------------------------------------
class TestFleetFlightDumps:
    def test_chaos_kill_leaves_a_dump_with_prior_queries(
        self, fleet_db, tmp_path
    ):
        tracer = Tracer()
        with make_fleet(
            fleet_db, tracer=tracer, workers=1, flight_dir=str(tmp_path),
        ) as fleet:
            fleet.optimize(Q1)
            trace_id = tracer.trace_id
            fleet.kill_worker(0)

        (path,) = flight_dumps(tmp_path, "die_request")
        dump = load_flight_dump(str(path))
        assert dump["reason"] == "die_request"
        assert dump["worker"] == "worker-0"
        # The ring holds the query served before the kill, stitched to
        # the orchestrator's trace and carrying its spans.
        (record,) = [r for r in dump["records"] if r["meta"]["kind"] == "optimize"]
        assert record["trace_id"] == trace_id
        span_names = {s["name"] for s in record["spans"]}
        assert "worker:optimize" in span_names
        assert any(n.startswith("search") for n in span_names)

    def test_fault_kill_dumps_the_inflight_query(self, fleet_db, tmp_path):
        spec = FaultSpec(site="extraction", kind="kill")
        with make_fleet(
            fleet_db, workers=1, flight_dir=str(tmp_path),
            fault_specs=(spec,),
            request_timeout_seconds=5.0,
        ) as fleet:
            result = fleet.optimize(Q2)  # served by the respawned worker
            assert result.plan is not None
            assert fleet.restarts_total == 1

        (path,) = flight_dumps(tmp_path, "fault_kill_extraction")
        dump = load_flight_dump(str(path))
        in_flight = dump["in_flight"]
        assert in_flight is not None and not in_flight["finished"]
        # The victim query's spans up to the fault site made it to disk,
        # plus the fault event itself.
        span_names = {s["name"] for s in in_flight["spans"]}
        assert "parse" in span_names
        assert any(n.startswith("search") for n in span_names)
        faults = [e for e in in_flight["events"]
                  if e["kind"] == "fault_injected"]
        assert faults and faults[0]["data"]["site"] == "extraction"

    def test_wedge_fault_dumps_before_hanging(self, fleet_db, tmp_path):
        spec = FaultSpec(site="costing", kind="wedge", delay_seconds=30.0)
        with FaultedFleet(
            fleet_db, workers=2, flight_dir=str(tmp_path),
            worker_faults={0: (spec,)},
            request_timeout_seconds=2.0,
        ) as fleet:
            for _ in range(3):
                assert fleet.optimize(Q1).plan is not None
            assert fleet.availability == 1.0

        (path,) = flight_dumps(tmp_path, "fault_wedge_costing")
        dump = load_flight_dump(str(path))
        assert dump["in_flight"] is not None
        assert dump["in_flight"]["name"].startswith("SELECT")


# ----------------------------------------------------------------------
# Fleet latency quantiles (the serve-report satellite's data source)
# ----------------------------------------------------------------------
class TestFleetLatencyQuantiles:
    def test_request_histogram_yields_ordered_percentiles(self, fleet_db):
        with make_fleet(fleet_db, workers=2) as fleet:
            for sql in (Q1, Q2, Q3, Q1, Q2, Q3):
                fleet.optimize(sql)
            p50 = fleet.telemetry.quantile("fleet_request_seconds", 0.50)
            p95 = fleet.telemetry.quantile("fleet_request_seconds", 0.95)
            p99 = fleet.telemetry.quantile("fleet_request_seconds", 0.99)
        assert p50 is not None and p50 > 0.0
        assert p50 <= p95 <= p99
