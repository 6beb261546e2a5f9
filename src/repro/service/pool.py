"""Admission-controlled pool of governed optimizer sessions.

Bounds how many optimizer sessions run concurrently (the front door a
host DBMS puts in front of its optimizer under heavy traffic): at most
``max_sessions`` sessions are admitted at once, further :meth:`acquire`
calls block up to an admission timeout and then fail with a typed
:class:`repro.errors.AdmissionError` instead of queueing unboundedly.

Sessions are recycled — a released session goes back to the free list
with its plan cache warm and its metrics accumulating.  All sessions
share one pool-wide :class:`repro.telemetry.MetricsRegistry` (exposed as
:attr:`SessionPool.telemetry`, the fleet's scrape target) and one
:class:`repro.telemetry.QueryStatsStore`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.catalog.database import Database
from repro.config import split_options
from repro.errors import AdmissionError, OptimizerError
from repro.service.session import SESSION_KEYWORDS, Session
from repro.telemetry import families
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.stats_store import QueryStatsStore
from repro.trace import Tracer

#: Session keywords a pool cannot forward: it names its sessions itself,
#: and a flight ring or a slow log has one writer, not ``max_sessions``.
_PER_SESSION = frozenset({"name", "slow_log", "flight_recorder"})


class SessionPool:
    """A bounded, recycling pool of :class:`Session` objects."""

    def __init__(
        self,
        catalog: Database,
        *,
        max_sessions: int = 4,
        admission_timeout_seconds: Optional[float] = None,
        telemetry: Optional[MetricsRegistry] = None,
        stats_store: Optional[QueryStatsStore] = None,
        feedback_store=None,
        **session_kwargs,
    ):
        if max_sessions < 1:
            raise OptimizerError("max_sessions must be at least 1")
        self.catalog = catalog
        self.max_sessions = max_sessions
        self.admission_timeout_seconds = admission_timeout_seconds
        #: The pool-wide metrics registry every session records into.
        #: Always a real (enabled) registry — pass a shared one to merge
        #: several pools into a single scrape target.
        self.telemetry = telemetry if telemetry is not None \
            else MetricsRegistry()
        #: Shared pg_stat_statements-style per-query aggregates.
        self.stats_store = stats_store if stats_store is not None \
            else QueryStatsStore()
        self.telemetry.set_gauge("pool_max_sessions", max_sessions)
        # Session's keywords are the sessions'; any other is an
        # OptimizerConfig field, exactly like ``connect``.
        base = session_kwargs.pop("config", None)
        config, session_kwargs = split_options(
            session_kwargs, SESSION_KEYWORDS - _PER_SESSION, base
        )
        #: Pool-wide cardinality feedback store: every session ingests
        #: into and reads from the same store, so one session's actuals
        #: improve every session's estimates.  None when the flag is off.
        if config.enable_cardinality_feedback:
            if feedback_store is None:
                from repro.feedback import FeedbackStore

                feedback_store = FeedbackStore(
                    tracer=Tracer.front(registry=self.telemetry)
                )
            self.feedback = feedback_store
        else:
            self.feedback = None
        self._session_kwargs = dict(session_kwargs, config=config)
        self._slots = threading.Semaphore(max_sessions)
        self._lock = threading.Lock()
        self._idle: list[Session] = []
        self._sessions: list[Session] = []
        self.admitted = 0
        self.rejected = 0
        self.closed = False

    # ------------------------------------------------------------------
    def acquire(self, timeout_seconds: Optional[float] = None) -> Session:
        """Admit one session, blocking up to the admission timeout.

        ``timeout_seconds`` overrides the pool default; ``None`` means
        block indefinitely, ``0`` means fail immediately when full.
        """
        if self.closed:
            raise OptimizerError("session pool is closed")
        if timeout_seconds is None:
            timeout_seconds = self.admission_timeout_seconds
        if timeout_seconds is None:
            admitted = self._slots.acquire()
        elif timeout_seconds <= 0:
            admitted = self._slots.acquire(blocking=False)
        else:
            admitted = self._slots.acquire(timeout=timeout_seconds)
        if not admitted:
            with self._lock:
                self.rejected += 1
                self.telemetry.inc(
                    families.POOL_ADMISSIONS, outcome="rejected"
                )
            raise AdmissionError(
                f"session pool full ({self.max_sessions} concurrent "
                f"sessions); admission timed out"
            )
        with self._lock:
            self.admitted += 1
            self.telemetry.inc(families.POOL_ADMISSIONS, outcome="admitted")
            if self._idle:
                session = self._idle.pop()
            else:
                session = Session(
                    self.catalog,
                    name=f"session-{len(self._sessions)}",
                    telemetry=self.telemetry,
                    stats_store=self.stats_store,
                    feedback_store=self.feedback,
                    **self._session_kwargs,
                )
                self._sessions.append(session)
            self.telemetry.set_gauge(
                families.POOL_ACTIVE_SESSIONS,
                len(self._sessions) - len(self._idle),
            )
            return session

    def release(self, session: Session) -> None:
        with self._lock:
            if session in self._idle or session not in self._sessions:
                raise OptimizerError(
                    "released a session this pool does not own"
                )
            self._idle.append(session)
            self.telemetry.set_gauge(
                families.POOL_ACTIVE_SESSIONS,
                len(self._sessions) - len(self._idle),
            )
        self._slots.release()

    @contextmanager
    def session(
        self, timeout_seconds: Optional[float] = None
    ) -> Iterator[Session]:
        session = self.acquire(timeout_seconds)
        try:
            yield session
        finally:
            self.release(session)

    # ------------------------------------------------------------------
    def optimize(self, sql, timeout_seconds: Optional[float] = None):
        """Admit, optimize, release — the one-shot convenience path."""
        with self.session(timeout_seconds) as s:
            return s.optimize(sql)

    def execute(self, sql, timeout_seconds: Optional[float] = None):
        with self.session(timeout_seconds) as s:
            return s.execute(sql)

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Sessions currently admitted (created minus idle)."""
        with self._lock:
            return len(self._sessions) - len(self._idle)

    def prometheus(self) -> str:
        """The pool's registry in Prometheus text exposition format."""
        return self.telemetry.to_prometheus()

    def query_stats(self):
        """Per-query aggregates, most-called first (pg_stat_statements)."""
        return self.stats_store.entries()

    def close(self) -> None:
        with self._lock:
            self.closed = True
            for session in self._sessions:
                session.close()

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
