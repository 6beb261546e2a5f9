"""The fleet worker: one governed optimizer session in its own process.

``worker_main`` is the process entry point.  It builds a
:class:`repro.service.Session` over the spec's catalog — wiring in the
shared plan store, the shared feedback board, and (for chaos runs) a
deterministic :class:`repro.service.FaultInjector` — then hands its
request handler to :func:`repro.gpos.process.serve` until drained or
killed.

Requests are dicts with a ``kind`` (see :func:`handle_request`); responses
are dicts whose ``ok`` distinguishes results from typed errors.  The
substrate echoes request ids and turns any exception, or a response
that cannot be pickled, into an error response rather than killing the
worker, so only *injected* process faults (kill/wedge) and real crashes
take a worker down.  The handler adds what is the fleet's own: the
flight record and spans of every request, and the catalog-bump ``seq``
that keeps a respawned worker from applying a broadcast twice.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.config import OptimizerConfig
from repro.errors import ReproError
from repro.gpos.process import Last, error_reply, serve
from repro.obs.flight import FlightRecorder
from repro.obs.slowlog import SlowQueryLog
from repro.service.faults import FaultInjector, FaultSpec, KILLED_EXIT_CODE
from repro.service.session import Session
from repro.telemetry.stats_store import QueryStatsStore

@dataclass
class WorkerSpec:
    """Everything a worker process needs to come up (fully picklable)."""

    catalog: object
    #: The fleet's ``bump_catalog()`` history (table names, None = all):
    #: ``catalog`` is the orchestrator's never-bumped copy, so the worker
    #: replays these before it serves its first request.
    catalog_bumps: tuple = ()
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    fallback: bool = True
    max_retries: int = 0
    #: Explicit fault schedule for this incarnation ('()' = none).
    fault_specs: tuple = ()
    #: Seeded random fault injection (CRC32 schedule; see service.faults).
    fault_seed: Optional[int] = None
    fault_rate: float = 0.0
    #: Cross-process plan store proxy (repro.fleet.shared.SharedPlanStore).
    shared_plans: object = None
    #: Cross-process feedback board (repro.fleet.shared.SharedFeedbackBoard).
    feedback_board: object = None
    #: 0 for the original spawn, +1 per restart; shifts the fault seed so
    #: a restarted worker does not deterministically re-die at the same
    #: site (the orchestrator also strips explicit kill/wedge specs).
    incarnation: int = 0
    #: Flight recorder: directory crash dumps are written to (None =
    #: ring buffer only, never touches disk).
    flight_dir: Optional[str] = None
    #: Slow-query log threshold in milliseconds (None = disabled).
    slow_query_ms: Optional[float] = None


def build_session(worker_id: int, spec: WorkerSpec) -> Session:
    """Construct the worker's governed session from its spec."""
    faults = None
    if spec.fault_specs or (spec.fault_seed is not None and spec.fault_rate > 0):
        seed = spec.fault_seed
        if seed is not None:
            seed = seed + 1009 * spec.incarnation + worker_id
        faults = FaultInjector(
            [FaultSpec(**s) if isinstance(s, dict) else s
             for s in spec.fault_specs],
            seed=seed,
            rate=spec.fault_rate,
        )
    feedback_store = None
    if spec.config.enable_cardinality_feedback and spec.feedback_board is not None:
        from repro.fleet.shared import SharedFeedbackStore

        feedback_store = SharedFeedbackStore(board=spec.feedback_board)
    # Always-on flight recorder: ring buffer in memory, dumps to disk
    # only when the spec names a directory.  Its front becomes the
    # session tracer (near-zero overhead; spans land in the ring).
    recorder = FlightRecorder(
        dump_dir=spec.flight_dir,
        worker=f"worker-{worker_id}",
    )
    slow_log = None
    stats_store = None
    if spec.slow_query_ms is not None:
        slow_log = SlowQueryLog(spec.slow_query_ms)
        stats_store = QueryStatsStore()
    session = Session(
        spec.catalog,
        config=spec.config,
        fallback=spec.fallback,
        max_retries=spec.max_retries,
        name=f"worker-{worker_id}",
        faults=faults,
        feedback_store=feedback_store,
        flight_recorder=recorder,
        slow_log=slow_log,
        stats_store=stats_store,
    )
    if session.orca.plan_cache is not None and spec.shared_plans is not None:
        session.orca.plan_cache.shared = spec.shared_plans
    return session


def _optimize_payload(session: Session, result) -> dict:
    """The picklable slice of an OptimizationResult a client needs."""
    return {
        "plan": result.plan,
        "output_cols": result.output_cols,
        "output_names": result.output_names,
        "plan_source": result.plan_source,
        "plan_cache": result.plan_cache,
        "fallback_reason": result.fallback_reason,
        "stats_confidence": result.stats_confidence,
        "opt_time_seconds": result.opt_time_seconds,
        "jobs_executed": result.search_stats.jobs_executed,
        "feedback_hits": result.search_stats.feedback_hits,
    }


def _worker_stats(session: Session) -> dict:
    cache = session.orca.plan_cache
    feedback = session.feedback
    return {
        "session": session.metrics.as_dict(),
        "plan_cache": cache.stats() if cache is not None else None,
        "feedback": feedback.stats() if feedback is not None else None,
        "catalog_versions": {
            table.name: session.catalog.version(table.name)
            for table in session.catalog.tables()
        },
        "pid": os.getpid(),
    }


def handle_request(session: Session, request: dict) -> dict:
    """Serve one request; returns the response dict (sans request id)."""
    kind = request["kind"]
    if kind == "optimize":
        result = session.optimize(request["sql"])
        return {"ok": True, **_optimize_payload(session, result)}
    if kind == "execute":
        execution = session.execute(
            request["sql"], analyze=request.get("analyze", False)
        )
        return {
            "ok": True,
            "execution": execution,
            "plan_source": session.last_result.plan_source,
            "plan_cache": session.last_result.plan_cache,
        }
    if kind == "explain":
        return {"ok": True, "text": session.explain(request["sql"])}
    if kind == "ping":
        return {"ok": True, "pong": True, "pid": os.getpid(),
                "queries": session.metrics.queries}
    if kind == "stats":
        return {"ok": True, **_worker_stats(session)}
    if kind == "bump_catalog":
        # DDL/ANALYZE propagation: re-ANALYZE bumps the per-table
        # metadata versions, and the next optimize on this worker
        # triggers the stale sweep — locally and in the shared store.
        session.catalog.analyze(request.get("table"))
        return {"ok": True}
    if kind == "die":
        # Orchestrator-driven chaos: die without ceremony, mid-protocol.
        # The flight recorder is the only thing that survives — flush it
        # now; os._exit runs no cleanup handlers.
        if session.flight is not None:
            session.flight.dump("die_request")
        os._exit(KILLED_EXIT_CODE)
    if kind == "wedge":
        if session.flight is not None:
            session.flight.dump("wedge_request")
        time.sleep(request.get("seconds", 3600.0))
        return {"ok": True}
    return {
        "ok": False, "error_class": "OptimizerError", "code": "FLEET",
        "message": f"unknown request kind {kind!r}",
    }


def worker_main(conn, worker_id: int, spec: WorkerSpec) -> None:
    """Process entry point: come up from ``spec``, then serve the pipe
    until drained."""
    # Forked from a ThreadPoolExecutor thread, this process inherits the
    # executor's thread registry with the thread it now runs on in it,
    # and the executor's exit hook would join that thread: exit code 1
    # after a clean drain.
    executor_threads = sys.modules.get("concurrent.futures.thread")
    if executor_threads is not None:
        executor_threads._threads_queues.clear()
    for table in spec.catalog_bumps:
        spec.catalog.analyze(table)
    bumps_applied = len(spec.catalog_bumps)
    session = build_session(worker_id, spec)
    recorder = session.flight

    def handle(request: dict):
        nonlocal bumps_applied
        kind = request["kind"]
        if kind == "drain":
            return Last({"ok": True, "drained": True, **_worker_stats(session)})
        if kind == "bump_catalog":
            if request["seq"] <= bumps_applied:
                # Replayed at start-up: the broadcast overlapped a restart.
                return {"ok": True}
            bumps_applied = request["seq"]
        # Adopt the orchestrator's trace context: the record (and every
        # span under it) carries the query's trace_id, and the worker's
        # root span hangs off the orchestrator's request span.
        trace_ctx = request.get("trace") or {}
        record = recorder.begin(
            request.get("sql") or kind,
            trace_id=trace_ctx.get("trace_id"),
            parent_span_id=trace_ctx.get("parent_span_id"),
            kind=kind,
            worker=worker_id,
        )
        trips_before = session.metrics.timeouts + session.metrics.quota_trips
        try:
            with recorder.tracer.span(f"worker:{kind}", worker=worker_id):
                response = handle_request(session, request)
        except Exception as exc:
            if not isinstance(exc, ReproError):
                recorder.dump("worker_exception")
            response = error_reply(exc)
        trips = session.metrics.timeouts + session.metrics.quota_trips
        if trips > trips_before:
            # Governor trip: flush while the query is still the in-flight
            # record, so the dump shows what tripped it.
            recorder.dump("governor_trip")
        recorder.end()
        response["spans"] = [s.to_dict() for s in record.spans]
        response["trace_id"] = record.trace_id
        return response

    serve(conn, handle)
