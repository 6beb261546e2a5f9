"""The fleet orchestrator: many optimizer processes, one endpoint.

Where :class:`repro.service.SessionPool` bounds concurrency inside one
Python process, :class:`Fleet` shards optimization across a pool of
worker *processes* (GPOS §4.2 runs the search truly multi-core; a pool
of processes is how Python gets there past the GIL) while presenting the
same ``optimize`` / ``execute`` / ``explain`` surface as a single
governed session:

- **Routing** is pluggable (:mod:`repro.fleet.routing`): round-robin,
  least-loaded, or fingerprint-affinity so repeat query shapes land on
  cache-warm workers.
- **The plan cache crosses processes**: with ``enable_plan_cache`` on,
  every worker's LRU is backed by one
  :class:`repro.fleet.shared.SharedPlanStore`, so a shape optimized on
  worker A hits — and re-binds — from worker B.
- **Health** is actively managed: requests carry a timeout, heartbeats
  (:meth:`Fleet.health_check`) probe liveness, and a dead or wedged
  worker is killed, restarted, and its request re-routed — the
  availability contract is that chaos kills processes, never queries.
  Each worker is a :class:`repro.gpos.process.Supervised` child: the
  fork, the id-checked exchange, death vs wedge and the drain's
  escalation are that substrate's (DESIGN §3m); what a restart *means*
  — incarnations, re-armed faults, replayed catalog bumps, counters —
  is the fleet's.
- **Workers run at the same time**: each worker's pipe has its own lock,
  held only across that worker's exchange, restart and drain, so N
  client threads keep N workers busy and a wedged or
  restarting worker stalls nobody routed elsewhere.  Routing state and
  counters sit behind one short leaf lock that is never held across
  pipe I/O, a join, a fork or another lock (DESIGN §3i, "Concurrency").
- **Telemetry** flows into one :class:`repro.telemetry.MetricsRegistry`
  (the fleet's scrape target): per-worker up gauges, routing and restart
  counters, request latency histograms, and per-worker query counters
  folded in whenever worker stats are collected.

Results are bit-identical to single-process sessions: a worker runs the
very same governed :class:`repro.service.Session`, so the differential
suite pins ``Fleet`` plans against ``SessionPool`` plans text-for-text.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Optional

from repro.catalog.database import Database
from repro.config import OptimizerConfig, split_options
from repro.errors import FleetError, OptimizerError, ReproError, WorkerError
from repro.fleet.routing import RoutingPolicy, WorkerView, make_policy
from repro.fleet.shared import SharedFeedbackBoard, SharedPlanStore
from repro.fleet.worker import WorkerSpec, worker_main
from repro.gpos.process import CONTEXT, NoReply, Supervised
from repro.ops.scalar import ColRef
from repro.search.plan import PlanNode
from repro.telemetry import families
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats_store import fingerprint_query
from repro.trace import Tracer

#: Fault-spec kinds that must not be re-armed on a restarted worker —
#: re-arming a deterministic ``kill`` at hit 1 would murder every
#: incarnation at the same site forever.
_PROCESS_FAULT_KINDS = frozenset({"kill", "wedge"})

#: A :class:`NoReply` reason as the request and heartbeat counters spell it.
_OUTCOME = {"died": "dead", "wedged": "wedged"}


@dataclass
class FleetResult:
    """What one fleet optimization hands back to the caller.

    The picklable core of an :class:`repro.optimizer.OptimizationResult`
    plus provenance: which worker served it.
    """

    plan: PlanNode
    output_cols: list[ColRef]
    output_names: list[str]
    plan_source: str = "orca"
    plan_cache: str = ""
    fallback_reason: Optional[str] = None
    stats_confidence: float = 1.0
    opt_time_seconds: float = 0.0
    jobs_executed: int = 0
    feedback_hits: int = 0
    #: Worker id that optimized this query.
    worker: int = -1

    def explain(self) -> str:
        return self.plan.explain()


class _Worker:
    """Orchestrator-side handle on one worker process."""

    def __init__(self, worker_id: int, child: Supervised):
        self.worker_id = worker_id
        self.child = child
        self.view = WorkerView(worker_id)
        self.incarnation = 0
        #: Owns the pipe: held across one exchange, a restart or a drain
        #: of this worker, and nothing that concerns another worker.
        self.lock = threading.Lock()
        #: Cumulative per-plan-source counts already folded into the
        #: registry (delta accounting across stats collections).
        self.folded_sources: dict[str, int] = {}

    @property
    def process(self):
        return self.child.process

    @property
    def alive(self) -> bool:
        return self.child.alive


class Fleet:
    """A multi-process optimizer fleet behind one session-like endpoint.

    Create via :func:`repro.fleet.connect` (keyword-only, mirroring
    :func:`repro.connect` plus the fleet knobs).  Thread-safe, and
    concurrent: a request holds only the lock of the worker it was
    routed to, so client threads are served by different workers at the
    same time while each pipe still carries one request at a time.
    Admin calls (:meth:`bump_catalog`, :meth:`worker_stats`,
    :meth:`kill_worker`, :meth:`health_check`, :meth:`drain`) take the
    same per-worker locks one worker after another.
    """

    def __init__(
        self,
        catalog: Database,
        *,
        workers: int = 2,
        policy="round-robin",
        config: Optional[OptimizerConfig] = None,
        fallback: bool = True,
        max_retries: int = 0,
        fault_specs: tuple = (),
        per_worker_faults: Optional[dict] = None,
        fault_seed: Optional[int] = None,
        fault_rate: float = 0.0,
        request_timeout_seconds: float = 60.0,
        heartbeat_timeout_seconds: float = 5.0,
        telemetry: Optional[MetricsRegistry] = None,
        name: str = "fleet",
        tracer=None,
        flight_dir: Optional[str] = None,
        slow_query_ms: Optional[float] = None,
        **config_kwargs,
    ):
        if workers < 1:
            raise OptimizerError("a fleet needs at least 1 worker")
        config, _ = split_options(config_kwargs, config=config)
        if config.parallelism >= 2:
            raise OptimizerError(
                f"a fleet cannot run parallelism={config.parallelism}: its "
                "workers are daemonic processes, which cannot fork a "
                "morsel pool"
            )
        self.catalog = catalog
        self.config = config
        self.name = name
        self.num_workers = workers
        self.policy: RoutingPolicy = make_policy(policy)
        self.per_worker_faults = dict(per_worker_faults or {})
        self.request_timeout_seconds = request_timeout_seconds
        self.heartbeat_timeout_seconds = heartbeat_timeout_seconds
        self.telemetry = (
            telemetry if telemetry is not None else MetricsRegistry()
        )
        #: The orchestrator's instrumentation front: ``tracer`` writing
        #: ``telemetry`` too.  When ``tracer`` has a trace buffer, every
        #: routed request runs under a ``fleet:<kind>`` span, trace
        #: context is injected into the request dict, and the worker's
        #: spans are adopted back into its timeline — one stitched trace.
        self.tracer = Tracer.front(tracer, registry=self.telemetry)
        self.closed = False

        #: One manager process backs all cross-process state; only
        #: started when some subsystem actually shares state.
        self._manager = None
        self.shared_plans: Optional[SharedPlanStore] = None
        self.feedback_board: Optional[SharedFeedbackBoard] = None
        if config.enable_plan_cache or config.enable_cardinality_feedback:
            self._manager = CONTEXT.Manager()
            if config.enable_plan_cache:
                self.shared_plans = SharedPlanStore(self._manager)
            if config.enable_cardinality_feedback:
                self.feedback_board = SharedFeedbackBoard(self._manager)
        #: What every worker comes up from; ``_spec_for`` fills in what
        #: differs per worker and per incarnation.
        self._spec = WorkerSpec(
            catalog=catalog,
            config=config,
            fallback=fallback,
            max_retries=max_retries,
            fault_specs=tuple(fault_specs),
            fault_seed=fault_seed,
            fault_rate=fault_rate,
            shared_plans=self.shared_plans,
            feedback_board=self.feedback_board,
            flight_dir=flight_dir,
            slow_query_ms=slow_query_ms,
        )

        #: Leaf lock over routing state, the counters below and every
        #: telemetry write.  A worker's lock may be held while taking it,
        #: never the other way round.
        self._state = threading.Lock()
        self._req_counter = 0
        #: Every ``bump_catalog()`` so far, in order.  ``self.catalog`` is
        #: never bumped, so a respawned worker replays these first.
        self._catalog_bumps: list[Optional[str]] = []
        #: One ``bump_catalog()`` broadcast at a time: workers apply
        #: bumps in the order they were recorded.
        self._bump_lock = threading.Lock()
        self.requests_attempted = 0
        self.requests_served = 0
        self.restarts_total = 0
        self._workers = [
            _Worker(i, Supervised(
                worker_main, name=f"{name}-worker-{i}",
                # Fleet-wide request ids; ``_next_id`` looked up per call.
                ids=lambda: self._next_id(),
            ))
            for i in range(workers)
        ]
        self.telemetry.set_gauge("fleet_workers", workers)
        for worker in self._workers:
            worker.child.start(worker.worker_id, self._spec_for(worker))
            self._mark_up(worker, True)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spec_for(self, worker: _Worker) -> WorkerSpec:
        explicit = self._spec.fault_specs + tuple(
            self.per_worker_faults.get(worker.worker_id, ())
        )
        if worker.incarnation > 0:
            # Never re-arm process-level faults: the restarted worker
            # must come back healthy (seeded-rate faults *are* re-armed,
            # with a shifted seed, so soaks keep injecting).
            explicit = tuple(
                s for s in explicit if s.kind not in _PROCESS_FAULT_KINDS
            )
        with self._state:
            catalog_bumps = tuple(self._catalog_bumps)
        return replace(
            self._spec,
            catalog_bumps=catalog_bumps,
            fault_specs=explicit,
            incarnation=worker.incarnation,
        )

    def _mark_up(self, worker: _Worker, up: bool) -> None:
        with self._state:
            worker.view.alive = up
            self.tracer.set_gauge(
                families.FLEET_WORKER_UP, int(up),
                worker=str(worker.worker_id),
            )

    def _worker(self, worker_id: int) -> _Worker:
        if worker_id not in range(len(self._workers)):
            raise OptimizerError(
                f"fleet '{self.name}' has no worker {worker_id!r} "
                f"(ids are 0..{len(self._workers) - 1})"
            )
        return self._workers[worker_id]

    def _restart(self, worker: _Worker, reason: str) -> None:
        """Kill (if needed) and respawn one worker; fleet-visible.

        The caller holds ``worker.lock``.  The worker stays routable
        throughout — a request routed to it waits on the lock and is
        served by the new process — so a fleet whose every worker is
        restarting still has somewhere to route.  A closed fleet never
        respawns.
        """
        if self.closed:
            raise OptimizerError(f"fleet '{self.name}' is closed")
        worker.incarnation += 1
        worker.folded_sources = {}  # the new process counts from zero
        with self._state:
            worker.view.restarts += 1
            self.restarts_total += 1
            self.tracer.record(
                "fleet_restart",
                worker=worker.worker_id, reason=reason,
                incarnation=worker.incarnation,
            )
        worker.child.restart(worker.worker_id, self._spec_for(worker))
        self._mark_up(worker, True)

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def _next_id(self) -> int:
        with self._state:
            self._req_counter += 1
            return self._req_counter

    def _views(self) -> list[WorkerView]:
        return [w.view for w in self._workers]

    def _raise_remote(self, worker_id: int, response: dict) -> None:
        """Re-raise a worker-side typed error as faithfully as possible."""
        import repro.errors as errors_mod

        cls = getattr(errors_mod, response.get("error_class", ""), None)
        message = response.get("message", "")
        if cls is not None and issubclass(cls, ReproError):
            try:
                raise cls(message)
            except TypeError:
                pass  # constructor needs more than a message
        raise WorkerError(
            message,
            worker=worker_id,
            remote_code=response.get("code", ""),
            remote_class=response.get("error_class", ""),
        )

    @contextmanager
    def _routed(self, fingerprint: str):
        """Choose a worker and count the request against it at once, so
        the next ``choose`` already sees it in flight; uncount on exit."""
        with self._state:
            worker = self._workers[
                self.policy.choose(fingerprint, self._views())
            ]
            worker.view.routed += 1
            worker.view.in_flight += 1
            self.tracer.inc(
                families.FLEET_ROUTING,
                policy=self.policy.name, worker=str(worker.worker_id),
            )
        try:
            yield worker
        finally:
            with self._state:
                worker.view.in_flight -= 1

    def _attempt(self, worker: _Worker, kind: str, payload: dict, tracer):
        """One exchange with ``worker``, holding its lock and no other.

        Returns ``(response, seconds on the pipe)``.  A dead worker is
        restarted first; one that does not answer is restarted and the
        :class:`NoReply` re-raised for the caller to re-route or give
        up.  With a ``tracer`` the exchange runs under a ``fleet:<kind>``
        span and the worker's spans are adopted beneath it.
        """
        timeout = self.request_timeout_seconds
        with worker.lock:
            if not worker.alive:
                self._restart(worker, "died")
            start = time.perf_counter()
            try:
                if tracer is None:
                    response = worker.child.exchange(
                        {"kind": kind, **payload}, timeout
                    )
                else:
                    with tracer.span(
                        f"fleet:{kind}", worker=worker.worker_id
                    ) as req_span:
                        # Trace context crosses the pipe as plain dict
                        # entries; the worker parents its spans under
                        # this request span.
                        traced = {"kind": kind, **payload, "trace": {
                            "trace_id": tracer.trace_id,
                            "parent_span_id": req_span.span_id,
                        }}
                        base = tracer.now()
                        response = worker.child.exchange(traced, timeout)
            except NoReply as exc:
                self._restart(worker, exc.reason)
                raise
            seconds = time.perf_counter() - start
        if tracer is not None and response.get("spans"):
            # Worker span times are relative to its request begin;
            # rebase them at the moment we sent it.
            tracer.adopt_spans(
                response["spans"],
                base=base,
                parent_id=req_span.span_id,
                process=f"worker-{worker.worker_id}",
            )
        return response, seconds

    def _request(self, kind: str, payload: dict, sql: Optional[str] = None):
        """Route one request, restarting and re-routing around failures.

        Returns ``(response, worker_id)``; raises the remote error for a
        typed worker-side failure and :class:`FleetError` only when no
        worker could be made to serve the request at all.
        """
        if self.closed:
            raise OptimizerError(f"fleet '{self.name}' is closed")
        fp = ""
        if sql is not None:
            fp = fingerprint_query(sql)[0]
        tracer = self.tracer if self.tracer.enabled else None
        with self._state:
            self.requests_attempted += 1
        attempts = 2 * len(self._workers) + 2
        for _ in range(attempts):
            with self._routed(fp) as worker:
                try:
                    response, seconds = self._attempt(
                        worker, kind, payload, tracer
                    )
                except NoReply as exc:
                    with self._state:
                        self.tracer.inc(
                            families.FLEET_REQUESTS,
                            outcome=f"retry_{_OUTCOME[exc.reason]}",
                        )
                    continue
            ok = response.get("ok", False)
            with self._state:
                worker.view.completed += 1
                self.tracer.observe(families.FLEET_REQUEST_SECONDS, seconds)
                self.tracer.inc(
                    families.FLEET_REQUESTS, outcome="ok" if ok else "error"
                )
                if ok:
                    self.requests_served += 1
            if not ok:
                self._raise_remote(worker.worker_id, response)
            return response, worker.worker_id
        with self._state:
            self.tracer.inc(families.FLEET_REQUESTS, outcome="unroutable")
        raise FleetError(
            f"no worker could serve the request after {attempts} "
            f"routing attempts ({self.restarts_total} restarts so far)"
        )

    # ------------------------------------------------------------------
    # The session-compatible surface
    # ------------------------------------------------------------------
    def optimize(self, sql: str) -> FleetResult:
        """Optimize on some worker; always yields a plan (same contract
        as a governed session — fallback happens worker-side)."""
        response, worker_id = self._request("optimize", {"sql": sql}, sql=sql)
        result = FleetResult(
            plan=response["plan"],
            output_cols=response["output_cols"],
            output_names=response["output_names"],
            plan_source=response["plan_source"],
            plan_cache=response["plan_cache"],
            fallback_reason=response["fallback_reason"],
            stats_confidence=response["stats_confidence"],
            opt_time_seconds=response["opt_time_seconds"],
            jobs_executed=response["jobs_executed"],
            feedback_hits=response["feedback_hits"],
            worker=worker_id,
        )
        with self._state:
            self.tracer.inc(families.QUERIES, plan_source=result.plan_source)
            self.tracer.observe(
                families.OPTIMIZATION_SECONDS, result.opt_time_seconds
            )
        return result

    def execute(self, sql: str, analyze: bool = False):
        """Optimize and execute on some worker; returns the
        :class:`repro.engine.executor.ExecutionResult` (with per-node
        actuals when the worker runs the feedback loop or ``analyze``)."""
        response, worker_id = self._request(
            "execute", {"sql": sql, "analyze": analyze}, sql=sql
        )
        with self._state:
            self.tracer.inc(
                families.QUERIES, plan_source=response["plan_source"]
            )
        execution = response["execution"]
        execution.worker = worker_id
        return execution

    def explain(self, sql: str) -> str:
        """The worker-rendered plan, provenance banner included."""
        response, _ = self._request("explain", {"sql": sql}, sql=sql)
        return response["text"]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _probe(self, worker: _Worker) -> str:
        """Ping one worker; restart on silence/death.  Returns outcome.
        The caller holds ``worker.lock``."""
        if not worker.alive:
            self._restart(worker, "died")
            return "restarted_dead"
        try:
            worker.child.exchange(
                {"kind": "ping"}, self.heartbeat_timeout_seconds
            )
        except NoReply as exc:
            self._restart(worker, exc.reason)
            return f"restarted_{_OUTCOME[exc.reason]}"
        return "ok"

    def health_check(self) -> dict[int, str]:
        """Heartbeat every idle worker, restarting the sick; id -> outcome.

        A worker whose pipe is in use is reported ``"busy"`` and left
        alone: the request in flight on it has its own timeout, which is
        the liveness check, and a ping would have to queue behind it.
        """
        out: dict[int, str] = {}
        for worker in self._workers:
            if worker.lock.acquire(blocking=False):
                try:
                    outcome = self._probe(worker)
                finally:
                    worker.lock.release()
            else:
                outcome = "busy"
            out[worker.worker_id] = outcome
            with self._state:
                self.tracer.inc(
                    families.FLEET_HEARTBEATS,
                    worker=str(worker.worker_id), outcome=outcome,
                )
        return out

    # ------------------------------------------------------------------
    # Chaos handles (deterministic, orchestrator-driven)
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker (``os._exit`` inside the process), then
        restart it — the orchestrator-driven half of the chaos matrix."""
        worker = self._worker(worker_id)
        with worker.lock:
            worker.child.stop(farewell={"kind": "die"}, timeout=10)
            self._restart(worker, "chaos_kill")

    def wedge_worker(self, worker_id: int, seconds: float = 3600.0) -> None:
        """Wedge one worker (blocks inside the request loop); the next
        probe or routed request times out and triggers the restart."""
        worker = self._worker(worker_id)
        with worker.lock:
            try:
                worker.child.request({"kind": "wedge", "seconds": seconds})
            except NoReply:
                self._restart(worker, "died")

    # ------------------------------------------------------------------
    # Stats / maintenance
    # ------------------------------------------------------------------
    def _fold_worker_stats(self, worker: _Worker, stats: dict) -> None:
        """Delta-merge one worker's session counters into the registry."""
        sources = stats.get("session", {}).get("plan_sources", {})
        with self._state:
            for source, count in sources.items():
                seen = worker.folded_sources.get(source, 0)
                if count > seen:
                    self.tracer.inc(
                        families.FLEET_WORKER_QUERIES,
                        count - seen,
                        worker=str(worker.worker_id), plan_source=source,
                    )
                    worker.folded_sources[source] = count

    def worker_stats(self) -> dict[int, dict]:
        """Collect per-worker session/cache/feedback stats (and fold the
        query counters into the fleet registry), one worker at a time
        behind whatever request is in flight on it."""
        out: dict[int, dict] = {}
        for worker in self._workers:
            try:
                response = self._request_to(worker, "stats", {})
            except (FleetError, OptimizerError):
                continue
            out[worker.worker_id] = response
            self._fold_worker_stats(worker, response)
        return out

    def _request_to(self, worker: _Worker, kind: str, payload: dict) -> dict:
        """One direct (non-routed, untraced) request to a specific
        worker, behind whatever is in flight on it."""
        try:
            response, _ = self._attempt(worker, kind, payload, None)
        except NoReply as exc:
            raise FleetError(
                f"worker {worker.worker_id} {exc.reason} on {kind}"
            ) from None
        if not response.get("ok", False):
            self._raise_remote(worker.worker_id, response)
        return response

    def bump_catalog(self, table: Optional[str] = None) -> None:
        """Broadcast a catalog ANALYZE (metadata version bump) to every
        worker; their next optimizations run the fleet-wide stale sweep.

        Workers are bumped one after another, each behind the request in
        flight on it, while the others keep serving.  On return every
        worker has applied the bump, so a statement *started* afterwards
        is optimized against the new versions on whichever worker it
        lands; one that overlaps the call may see either side.  The bump
        is recorded first: a worker respawned from now on replays it
        before it serves anything, and acknowledges this broadcast
        (matched by ``seq``) without applying it twice.
        """
        with self._bump_lock:
            with self._state:
                self._catalog_bumps.append(table)
                seq = len(self._catalog_bumps)
            for worker in self._workers:
                try:
                    self._request_to(
                        worker, "bump_catalog", {"table": table, "seq": seq}
                    )
                except FleetError:
                    pass  # restarted instead: the new process replayed it

    @property
    def availability(self) -> float:
        """Served / attempted requests (the chaos suite pins this at 1.0)."""
        if self.requests_attempted == 0:
            return 1.0
        return self.requests_served / self.requests_attempted

    def prometheus(self) -> str:
        with self._state:
            return self.telemetry.to_prometheus()

    def summary(self) -> str:
        ups = sum(1 for w in self._workers if w.alive)
        return (
            f"fleet '{self.name}': {ups}/{len(self._workers)} workers up, "
            f"{self.requests_served}/{self.requests_attempted} requests "
            f"served, {self.restarts_total} restarts, "
            f"availability {self.availability:.3f}"
        )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self) -> dict[int, dict]:
        """Gracefully drain every worker: collect final stats, wait for
        clean exits.  Returns id -> {"drained": bool, "exitcode": int}.
        Each worker is drained behind the request in flight on it."""
        out: dict[int, dict] = {}
        for worker in self._workers:
            with worker.lock:
                out[worker.worker_id] = self._drain_one(worker)
        return out

    def _drain_one(self, worker: _Worker) -> dict:
        info = {"drained": False, "exitcode": None}
        if worker.alive:
            try:
                response = worker.child.exchange(
                    {"kind": "drain"}, self.request_timeout_seconds
                )
            except NoReply:
                response = {}
            if response.get("drained"):
                info["drained"] = True
                self._fold_worker_stats(worker, response)
                info["stats"] = {
                    k: response.get(k)
                    for k in ("session", "plan_cache", "feedback")
                }
        info["exitcode"] = worker.child.stop(timeout=10)
        self._mark_up(worker, False)
        return info

    def close(self) -> dict[int, dict]:
        """Drain and shut shared state down.

        ``closed`` is raised first: a request already holding a worker's
        lock finishes and is answered, one that reaches a drained worker
        is refused instead of respawning it.
        """
        with self._state:
            if self.closed:
                return {}
            self.closed = True
        drained = self.drain()
        if self._manager is not None:
            self._manager.shutdown()
        return drained

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Fleet({self.name!r}, workers={len(self._workers)}, "
            f"policy={self.policy.name!r})"
        )


def connect(catalog: Database, **kwargs) -> Fleet:
    """Open a multi-process optimizer fleet — the ``repro.connect`` of
    fleets.  Keyword arguments are :class:`Fleet` options; unknown
    keywords are :class:`repro.config.OptimizerConfig` fields, exactly
    like :func:`repro.connect`::

        fleet = repro.fleet.connect(db, workers=4, policy="affinity",
                                    enable_plan_cache=True)
        result = fleet.optimize("SELECT ...")   # served by some worker
    """
    return Fleet(catalog, **kwargs)
