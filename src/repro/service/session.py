"""Governed optimizer sessions with graceful Planner fallback.

The production contract this layer implements ("Query Optimization in
the Wild"): *every* query gets a plan, bounded in time and memory.  A
:class:`Session` wraps one :class:`repro.optimizer.Orca` instance and

1. arms a :class:`repro.gpos.governor.ResourceGovernor` per query from
   the config's ``search_deadline_ms`` / ``search_job_limit`` /
   ``memory_quota_bytes`` limits;
2. lets the engine degrade to the best-plan-so-far on a deadline
   (``plan_source == "orca_partial"``);
3. retries transiently-injected faults; and
4. on any remaining optimizer error, transparently falls back to the
   legacy Planner (``plan_source == "planner_fallback"``), raising
   :class:`repro.errors.FallbackError` only when the Planner fails too.

Frontend errors (:class:`repro.errors.ParseError` and friends) are
surfaced as-is — the Planner shares the SQL frontend, so falling back
cannot help.  ``fallback=False`` surfaces every raw optimizer error (the
CLI's ``--no-fallback``).
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, Optional, Union

from repro.catalog.database import Database
from repro.config import OptimizerConfig, split_options
from repro.engine.cluster import Cluster
from repro.engine.executor import ExecutionResult, Executor
from repro.errors import (
    FallbackError,
    MemoryQuotaExceeded,
    OptimizerError,
    ParseError,
    ReproError,
    SearchTimeout,
)
from repro.obs.flight import FlightRecorder
from repro.obs.slowlog import SlowQueryLog
from repro.optimizer import OptimizationResult, Orca
from repro.planner import LegacyPlanner
from repro.sql.ast import SelectStmt
from repro.telemetry import families
from repro.telemetry.stats_store import QueryStatsStore, fingerprint_query
from repro.trace import NULL_TRACER, Tracer


@dataclass
class SessionMetrics:
    """Per-session counters, keyed by the plan's provenance."""

    queries: int = 0
    #: plan_source -> count ("orca", "orca_partial", "planner_fallback",
    #: "cache").
    plan_sources: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    fallbacks: int = 0
    timeouts: int = 0
    quota_trips: int = 0
    errors: int = 0
    total_opt_seconds: float = 0.0

    def record(self, result: OptimizationResult) -> None:
        self.queries += 1
        source = result.plan_source
        self.plan_sources[source] = self.plan_sources.get(source, 0) + 1
        self.total_opt_seconds += result.opt_time_seconds

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "plan_sources": dict(self.plan_sources),
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "timeouts": self.timeouts,
            "quota_trips": self.quota_trips,
            "errors": self.errors,
            "total_opt_seconds": self.total_opt_seconds,
        }


class Session:
    """One governed optimizer session over a catalog.

    Create via :func:`connect` (the stable public entry point); options
    are keyword-only.
    """

    def __init__(
        self,
        catalog: Database,
        *,
        config: Optional[OptimizerConfig] = None,
        tracer: Optional[Tracer] = None,
        faults=None,
        fallback: bool = True,
        max_retries: int = 0,
        name: str = "session",
        telemetry=None,
        stats_store: Optional[QueryStatsStore] = None,
        feedback_store=None,
        slow_log: Optional[SlowQueryLog] = None,
        flight_recorder: Optional[FlightRecorder] = None,
    ):
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        self.fallback = fallback
        self.max_retries = max(int(max_retries), 0)
        self.name = name
        self.metrics = SessionMetrics()
        #: Fleet-wide metrics registry (repro.telemetry.MetricsRegistry),
        #: shared by the sessions passed the same one; None when off.
        self.telemetry = telemetry
        #: pg_stat_statements-style per-query aggregates, or None.
        self.stats_store = stats_store
        #: Structured slow-query / regression log (repro.obs.slowlog).
        self.slow_log = slow_log
        #: Always-on flight recorder (repro.obs.flight): recent query
        #: spans land in its ring at near-zero cost.
        self.flight = flight_recorder
        if tracer is None and flight_recorder is not None:
            tracer = flight_recorder.tracer
        #: The one instrumentation front everything below this session
        #: holds, assembled from the three doors above.
        tracer = Tracer.front(
            tracer, flight=flight_recorder, registry=telemetry
        )
        if faults is not None:
            # Fired faults belong in the trace / black box.
            faults.tracer = (
                tracer if faults.tracer is NULL_TRACER
                else Tracer.front(faults.tracer, flight=flight_recorder)
            )
        self.closed = False
        self._orca = Orca(
            catalog,
            config=self.config,
            tracer=tracer,
            faults=faults,
            feedback=feedback_store,
        )
        self._cluster: Optional[Cluster] = None
        #: Session-owned morsel pool (repro.engine.parallel.MorselPool)
        #: when ``config.parallelism >= 2``: created lazily, reused
        #: across queries, drained by close() and on mid-query governor
        #: trips so no worker processes outlive the session.
        self._morsel_pool = None
        #: The most recent OptimizationResult (set by optimize/execute).
        self.last_result: Optional[OptimizationResult] = None

    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self._orca.tracer

    @property
    def governor(self):
        return self._orca.governor

    @property
    def orca(self) -> Orca:
        """The underlying optimizer (escape hatch; not governed-safe)."""
        return self._orca

    @property
    def feedback(self):
        """The cardinality feedback store, or None when the
        ``enable_cardinality_feedback`` flag is off."""
        return self._orca.feedback

    def _check_open(self) -> None:
        if self.closed:
            raise OptimizerError(f"session '{self.name}' is closed")

    # ------------------------------------------------------------------
    def optimize(self, sql_or_stmt: Union[str, SelectStmt]) -> OptimizationResult:
        """Optimize one statement; always returns a plan unless the
        frontend rejects the query or fallback is disabled/failing."""
        self._check_open()
        with self._observed(sql_or_stmt) as seen:
            seen.result = self._optimize_governed(sql_or_stmt, seen.key)
        return seen.result

    @contextmanager
    def _observed(self, sql_or_stmt) -> Iterator[SimpleNamespace]:
        """The observation scope of one public call, optimize() or
        execute(): the flight record is begun and ended here (unless a
        caller up the stack, a fleet worker, already holds one), and the
        slow log observes the call once, when it returns.  ``key`` is the
        statement's ``(fingerprint, normalized)`` pair, computed once
        here when a stats store, the slow log or the flight record needs
        it.  The body fills in ``result`` and, when it executed the plan,
        ``exec_seconds`` and ``analysis``."""
        seen = SimpleNamespace(
            key=None, result=None, exec_seconds=None, analysis=None
        )
        slow = self.slow_log is not None
        owns_record = self.flight is not None and self.flight.current is None
        if slow or owns_record or self.stats_store is not None:
            seen.key = fingerprint_query(sql_or_stmt)
            fp, normalized = seen.key
        baseline = None
        if slow:
            if self.stats_store is not None:
                baseline = self._baseline_snapshot(fp)
            phases_before = dict(self.tracer.stage_times)
        if owns_record:
            self.flight.begin(normalized, session=self.name, fingerprint=fp)
        start = time.monotonic()
        try:
            yield seen
        finally:
            trace_id = self.tracer.trace_id
            if owns_record:
                self.flight.end()
        if not slow:
            return
        q_error = None
        if seen.analysis is not None:
            from repro.verify.qerror import plan_qerror

            q_error = plan_qerror(seen.analysis).geomean
        self.slow_log.observe(
            sql=normalized,
            seconds=time.monotonic() - start,
            opt_seconds=seen.result.opt_time_seconds,
            exec_seconds=seen.exec_seconds,
            phases=self._phases_since(phases_before),
            trace_id=trace_id,
            plan_source=seen.result.plan_source,
            q_error=q_error,
            fingerprint=fp,
            baseline=baseline,
            session=self.name,
        )

    def _optimize_governed(
        self,
        sql_or_stmt: Union[str, SelectStmt],
        key: Optional[tuple[str, str]],
    ) -> OptimizationResult:
        attempt = 0
        while True:
            try:
                result = self._orca.optimize(sql_or_stmt)
            except ParseError as exc:
                # The Planner shares the SQL frontend: fallback cannot
                # produce a plan for a query that does not parse/bind.
                self.metrics.errors += 1
                self.tracer.inc(families.SESSION_ERRORS, code=exc.code)
                raise
            except ReproError as exc:
                if (
                    attempt < self.max_retries
                    and getattr(exc, "transient", False)
                ):
                    attempt += 1
                    self.metrics.retries += 1
                    self.tracer.record("retry", attempt=attempt, code=exc.code)
                    continue
                if isinstance(exc, SearchTimeout):
                    self.metrics.timeouts += 1
                    self.tracer.inc(families.GOVERNOR_TRIPS, kind="deadline")
                elif isinstance(exc, MemoryQuotaExceeded):
                    self.metrics.quota_trips += 1
                    self.tracer.inc(
                        families.GOVERNOR_TRIPS, kind="memory_quota"
                    )
                if not self.fallback:
                    self.metrics.errors += 1
                    self.tracer.inc(families.SESSION_ERRORS, code=exc.code)
                    raise
                result = self._fall_back(sql_or_stmt, exc)
            if result.plan_source == "orca_partial":
                self.metrics.timeouts += 1
            self.metrics.record(result)
            self.tracer.inc(families.QUERIES, plan_source=result.plan_source)
            self.tracer.observe(
                families.OPTIMIZATION_SECONDS, result.opt_time_seconds
            )
            if self.stats_store is not None:
                self.stats_store.record_optimization(key, result)
            self.last_result = result
            return result

    def explain(
        self, sql_or_stmt: Union[str, SelectStmt], analyze: bool = False
    ) -> str:
        """Optimize and render the plan tree (annotated with its source).

        With ``analyze=True``, the plan is also *executed* and every node
        annotated with actual rows / work / network bytes next to the
        optimizer's estimates (EXPLAIN ANALYZE)."""
        if analyze:
            self.execute(sql_or_stmt, analyze=True)
            result = self.last_result
        else:
            result = self.optimize(sql_or_stmt)
        header = f"-- plan source: {result.plan_source}"
        if result.fallback_reason:
            header += f" (after {result.fallback_reason})"
        return f"{header}\n{result.explain(analyze=analyze)}"

    def execute(
        self,
        sql_or_stmt: Union[str, SelectStmt],
        analyze: bool = False,
    ) -> ExecutionResult:
        """Optimize and run on the session's simulated cluster.

        ``analyze=True`` collects per-node actuals into
        ``result.analysis`` (also attached to ``session.last_result``)."""
        self._check_open()
        with self._observed(sql_or_stmt) as seen:
            result = seen.result = self._optimize_governed(
                sql_or_stmt, seen.key
            )
            if self._cluster is None:
                self._cluster = Cluster(
                    self.catalog, segments=self.config.segments
                )
            executor = Executor(
                self._cluster,
                tracer=self.tracer,
                execution_mode=self.config.execution_mode,
                morsel_pool=self._get_morsel_pool(),
            )
            feedback = self._orca.feedback
            exec_start = time.monotonic()
            try:
                execution = executor.execute(
                    result.plan, result.output_cols,
                    # The feedback loop needs per-node actuals on every
                    # execution, not only on explicit EXPLAIN ANALYZE.
                    analyze=analyze or feedback is not None,
                )
            except BaseException:
                # A governor trip / fault mid-query must not orphan
                # morsel workers: drain now, respawn lazily next query.
                self._drain_morsel_pool()
                raise
            seen.exec_seconds = time.monotonic() - exec_start
            result.analysis = seen.analysis = execution.analysis
            if self.stats_store is not None:
                self.stats_store.record_execution(seen.key, execution)
            if feedback is not None and execution.analysis is not None:
                self._ingest_feedback(seen.key, result, execution.analysis)
        return execution

    # ------------------------------------------------------------------
    def _baseline_snapshot(self, fingerprint: str):
        """The query's *prior* stats, frozen before this call runs.

        ``get`` returns the live aggregate, which the governed optimize
        folds this very call into — comparing against it would dilute
        every regression with the regressed sample itself."""
        stats = self.stats_store.get(fingerprint)
        if stats is None:
            return None
        return SimpleNamespace(
            calls=stats.calls, mean_opt_seconds=stats.mean_opt_seconds
        )

    def _phases_since(self, before: dict) -> Optional[dict]:
        """Stage-time aggregates this query added (slow-log phase math)."""
        out = {
            name: total - before.get(name, 0.0)
            for name, total in self.tracer.stage_times.items()
            if total - before.get(name, 0.0) > 0.0
        }
        return out or None

    def _ingest_feedback(self, key, result, analysis) -> None:
        """Close the loop after one execution: fold actuals into the
        feedback store, drop plan-cache entries the new observations
        stale-date, and record the plan's q-error."""
        report = self._orca.feedback.ingest(result.plan, analysis)
        if report.changed_shapes and self._orca.plan_cache is not None:
            self._orca.plan_cache.invalidate_shapes(report.changed_shapes)
        if self.stats_store is not None:
            from repro.verify.qerror import plan_qerror

            self.stats_store.record_qerror(key, plan_qerror(analysis))

    # ------------------------------------------------------------------
    def _fall_back(
        self, sql_or_stmt: Union[str, SelectStmt], original: ReproError
    ) -> OptimizationResult:
        self.metrics.fallbacks += 1
        self.tracer.record(
            "fallback", reason=original.code, error=str(original)
        )
        start = time.perf_counter()
        cache = self._orca.plan_cache
        if cache is not None and isinstance(sql_or_stmt, str):
            # The text got as far as the search, so it parsed, and the
            # cache's statement front has its AST.
            seen = cache.statement(sql_or_stmt)
            if seen is not None:
                sql_or_stmt = seen[0]
        try:
            planned = LegacyPlanner(self.catalog, self.config).optimize(
                sql_or_stmt
            )
        except Exception as fallback_exc:
            self.metrics.errors += 1
            raise FallbackError(original, fallback_exc) from fallback_exc
        return OptimizationResult(
            plan=planned.plan,
            output_cols=planned.output_cols,
            output_names=planned.output_names,
            plan_source="planner_fallback",
            fallback_reason=original.code,
            trace=self._orca.tracer,
            opt_time_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    def _get_morsel_pool(self):
        """The session's lazily-created morsel pool, or None when
        ``config.parallelism`` keeps execution serial.  One pool per
        session lifetime, shared across queries; worker processes fork
        only on the first parallel dispatch."""
        if self._morsel_pool is None and self.config.parallelism:
            from repro.engine.parallel import make_pool

            self._morsel_pool = make_pool(
                self.config.parallelism,
                tracer=self.tracer,
                name=f"{self.name}-morsels",
            )
        return self._morsel_pool

    def _drain_morsel_pool(self) -> None:
        if self._morsel_pool is not None:
            self._morsel_pool.shutdown()
            self._morsel_pool = None

    def morsel_stats(self) -> Optional[dict]:
        """Morsel-pool counters (workers, morsels dispatched, dispatch
        p95) — None when parallel execution is off or never engaged."""
        if self._morsel_pool is None:
            return None
        return self._morsel_pool.stats()

    def close(self) -> None:
        self._drain_morsel_pool()
        self.closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session({self.name!r}, queries={self.metrics.queries}, "
            f"fallback={self.fallback})"
        )


#: The keywords :class:`Session` declares.  A door that takes
#: ``**options`` keeps these and hands every other one to
#: :func:`repro.config.split_options` as an OptimizerConfig field.
SESSION_KEYWORDS = frozenset(inspect.signature(Session).parameters)


def connect(
    catalog: Database,
    *,
    config: Optional[OptimizerConfig] = None,
    **options,
) -> Session:
    """Open a governed optimizer session — the stable public entry point.

    Keyword arguments are :class:`Session`'s; any other is an
    :class:`OptimizerConfig` field, merged over ``config``::

        session = repro.connect(db, segments=8, search_deadline_ms=250)
        result = session.optimize("SELECT ...")   # always yields a plan
    """
    config, session_options = split_options(options, SESSION_KEYWORDS, config)
    return Session(catalog, config=config, **session_options)
