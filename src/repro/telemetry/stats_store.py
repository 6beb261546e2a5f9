"""pg_stat_statements for the optimizer service: per-query aggregates.

Every statement a :class:`repro.service.session.Session` optimizes is
normalized (literals replaced by ``?``, whitespace collapsed), hashed to
a stable fingerprint, and aggregated under that fingerprint: call count,
plan provenance (orca / orca_partial / planner_fallback / cache), plan
cache hits, optimization-time mean/max and simulated execution work.
The store answers "what has this fleet been running, and how did the
optimizer treat it" — the query-level complement of the fleet-wide
:class:`repro.telemetry.registry.MetricsRegistry`.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Union


_STRING_RE = re.compile(r"'(?:[^']|'')*'")
_NUMBER_RE = re.compile(r"\b\d+(?:\.\d+)?\b")
_WS_RE = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Replace literals with ``?`` and collapse whitespace.

    The same lexical normalization pg_stat_statements applies: two
    invocations of one query shape that differ only in constants share a
    fingerprint, so the store aggregates across parameter bindings just
    like the plan cache does.
    """
    text = _STRING_RE.sub("?", sql)
    text = _NUMBER_RE.sub("?", text)
    return _WS_RE.sub(" ", text).strip()


def fingerprint_query(sql_or_stmt: Union[str, Any]) -> tuple[str, str]:
    """Return ``(fingerprint, normalized text)`` for a query.

    Strings are normalized lexically; pre-parsed statements reuse the
    plan cache's structural shape so both entry points agree on what
    "the same query" means.
    """
    if isinstance(sql_or_stmt, str):
        normalized = normalize_sql(sql_or_stmt)
        digest = hashlib.sha1(normalized.encode("utf-8")).hexdigest()[:16]
        return digest, normalized
    from repro.plancache import fingerprint as shape_fingerprint

    shape, _params = shape_fingerprint(sql_or_stmt)
    digest = hashlib.sha1(repr(shape).encode("utf-8")).hexdigest()[:16]
    return digest, f"<statement {digest}>"


@dataclass
class QueryStats:
    """Aggregates for one normalized query."""

    fingerprint: str
    query: str
    calls: int = 0
    #: plan_source -> count ("orca", "orca_partial", "planner_fallback",
    #: "cache").
    plan_sources: dict[str, int] = field(default_factory=dict)
    cache_hits: int = 0
    total_opt_seconds: float = 0.0
    max_opt_seconds: float = 0.0
    executions: int = 0
    total_exec_work: float = 0.0
    max_exec_work: float = 0.0
    total_exec_seconds: float = 0.0
    rows_returned: int = 0
    #: Q-error aggregates (repro.verify.qerror), fed by the cardinality
    #: feedback loop: per-node samples, the running sum of log(q) (the
    #: geomean accumulator — q-errors aggregate multiplicatively), and
    #: the worst node seen.
    qerror_samples: int = 0
    total_log_qerror: float = 0.0
    max_qerror: float = 1.0

    @property
    def mean_opt_seconds(self) -> float:
        return self.total_opt_seconds / self.calls if self.calls else 0.0

    @property
    def mean_exec_work(self) -> float:
        return self.total_exec_work / self.executions if self.executions else 0.0

    @property
    def geomean_qerror(self) -> float:
        if not self.qerror_samples:
            return 1.0
        import math

        return math.exp(self.total_log_qerror / self.qerror_samples)

    def as_dict(self) -> dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "query": self.query,
            "calls": self.calls,
            "plan_sources": dict(self.plan_sources),
            "cache_hits": self.cache_hits,
            "mean_opt_seconds": self.mean_opt_seconds,
            "max_opt_seconds": self.max_opt_seconds,
            "executions": self.executions,
            "mean_exec_work": self.mean_exec_work,
            "max_exec_work": self.max_exec_work,
            "total_exec_seconds": self.total_exec_seconds,
            "rows_returned": self.rows_returned,
            "qerror_samples": self.qerror_samples,
            "geomean_qerror": self.geomean_qerror,
            "max_qerror": self.max_qerror,
        }


#: Query shapes a :class:`QueryStatsStore` holds before it evicts.
MAX_ENTRIES = 1000


class QueryStatsStore:
    """Fingerprint-keyed query statistics with bounded entry count.

    When full, the least-called entry is evicted to admit a new query
    shape (the pg_stat_statements dealloc policy, minus the sampling).

    The ``record_*`` writers take the statement's ``key``, the
    ``(fingerprint, normalized)`` pair :func:`fingerprint_query` returns,
    so a caller recording one statement several times fingerprints it
    once; :meth:`lookup` takes the statement itself."""

    def __init__(self):
        self._entries: dict[str, QueryStats] = {}
        self.evictions = 0
        #: Sessions on several threads may share one store: admitting an
        #: entry and every fold into one hold this lock.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _entry(self, key: tuple[str, str]) -> QueryStats:
        """The key's entry, admitted if new; the caller holds the lock."""
        fingerprint, normalized = key
        stats = self._entries.get(fingerprint)
        if stats is None:
            if len(self._entries) >= MAX_ENTRIES:
                victim = min(self._entries.values(), key=lambda s: s.calls)
                del self._entries[victim.fingerprint]
                self.evictions += 1
            stats = QueryStats(fingerprint=fingerprint, query=normalized)
            self._entries[fingerprint] = stats
        return stats

    def record_optimization(self, key: tuple[str, str], result) -> QueryStats:
        """Fold one OptimizationResult into the query's aggregate."""
        source = result.plan_source
        with self._lock:
            stats = self._entry(key)
            stats.calls += 1
            stats.plan_sources[source] = stats.plan_sources.get(source, 0) + 1
            if source == "cache":
                stats.cache_hits += 1
            stats.total_opt_seconds += result.opt_time_seconds
            stats.max_opt_seconds = max(
                stats.max_opt_seconds, result.opt_time_seconds
            )
        return stats

    def record_execution(
        self, key: tuple[str, str], execution_result
    ) -> QueryStats:
        """Fold one ExecutionResult's simulated work into the aggregate."""
        work = execution_result.metrics.total_work()
        seconds = execution_result.simulated_seconds()
        with self._lock:
            stats = self._entry(key)
            stats.executions += 1
            stats.total_exec_work += work
            stats.max_exec_work = max(stats.max_exec_work, work)
            stats.total_exec_seconds += seconds
            stats.rows_returned += len(execution_result.rows)
        return stats

    def record_qerror(self, key: tuple[str, str], report) -> QueryStats:
        """Fold one plan's :class:`repro.verify.qerror.QErrorReport` into
        the query's aggregate (geomean accumulates in log space)."""
        import math

        with self._lock:
            stats = self._entry(key)
            for node in report.nodes:
                stats.qerror_samples += 1
                stats.total_log_qerror += math.log(node.qerror)
                stats.max_qerror = max(stats.max_qerror, node.qerror)
        return stats

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[QueryStats]:
        return self._entries.get(fingerprint)

    def lookup(self, sql_or_stmt) -> Optional[QueryStats]:
        fingerprint, _ = fingerprint_query(sql_or_stmt)
        return self._entries.get(fingerprint)

    def entries(self) -> list[QueryStats]:
        """All entries, most-called first (ties broken by fingerprint)."""
        with self._lock:
            entries = list(self._entries.values())
        return sorted(entries, key=lambda s: (-s.calls, s.fingerprint))

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> list[dict[str, Any]]:
        return [stats.as_dict() for stats in self.entries()]

    # ------------------------------------------------------------------
    def render(self, limit: Optional[int] = None, width: int = 48) -> str:
        """A psql-style table of the top queries by call count."""
        entries = self.entries()
        if limit is not None:
            entries = entries[:limit]
        header = (
            f"{'fingerprint':16} | {'calls':>5} | {'cache':>5} | "
            f"{'mean_opt_ms':>11} | {'max_opt_ms':>10} | "
            f"{'mean_work':>10} | {'sources':24} | query"
        )
        lines = [header, "-" * len(header)]
        for stats in entries:
            sources = ",".join(
                f"{k}={v}" for k, v in sorted(stats.plan_sources.items())
            )
            query = stats.query
            if len(query) > width:
                query = query[: width - 3] + "..."
            lines.append(
                f"{stats.fingerprint:16} | {stats.calls:>5} | "
                f"{stats.cache_hits:>5} | "
                f"{stats.mean_opt_seconds * 1e3:>11.2f} | "
                f"{stats.max_opt_seconds * 1e3:>10.2f} | "
                f"{stats.mean_exec_work:>10.1f} | {sources:24} | {query}"
            )
        lines.append(
            f"({len(entries)} of {len(self._entries)} queries, "
            f"{self.evictions} evicted)"
        )
        return "\n".join(lines)

    def render_qerror(self, limit: Optional[int] = None, width: int = 48) -> str:
        """A psql-style table of per-query q-error aggregates, worst
        geomean first (queries with no q-error samples are omitted)."""
        entries = [s for s in self.entries() if s.qerror_samples]
        entries.sort(key=lambda s: (-s.geomean_qerror, s.fingerprint))
        if limit is not None:
            entries = entries[:limit]
        header = (
            f"{'fingerprint':16} | {'calls':>5} | {'nodes':>5} | "
            f"{'geomean_q':>9} | {'max_q':>8} | query"
        )
        lines = [header, "-" * len(header)]
        for stats in entries:
            query = stats.query
            if len(query) > width:
                query = query[: width - 3] + "..."
            lines.append(
                f"{stats.fingerprint:16} | {stats.calls:>5} | "
                f"{stats.qerror_samples:>5} | "
                f"{stats.geomean_qerror:>9.3f} | "
                f"{stats.max_qerror:>8.2f} | {query}"
            )
        lines.append(f"({len(entries)} queries with q-error samples)")
        return "\n".join(lines)
