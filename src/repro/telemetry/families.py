"""Metric families: the one module that spells their names.

A number reaches a :class:`~repro.telemetry.MetricsRegistry` through the
instrumentation front (:class:`repro.trace.Tracer`) in one of three ways:

- an **event** the program records anyway is counted by
  :data:`EVENT_METRICS` (``tracer.record("retry", code=...)`` is also
  ``session_retries_total{code}``): no call site pairs the two by hand;
- a **snapshot** that exists when a search or an execution ends is
  folded by a ``fold_*`` function, post hoc, so the instrumented loop
  runs the same instructions with or without a registry;
- the rest is written with the front's ``inc`` / ``observe`` /
  ``set_gauge`` under one of the names below.
"""

from __future__ import annotations

from typing import Optional

# -- families written directly through the front's metric verbs --------
QUERIES = "queries_total"
OPTIMIZATION_SECONDS = "optimization_seconds"
SESSION_ERRORS = "session_errors_total"
GOVERNOR_TRIPS = "governor_trips_total"
POOL_ADMISSIONS = "pool_admissions_total"
POOL_ACTIVE_SESSIONS = "pool_active_sessions"
FEEDBACK_ENTRIES = "feedback_entries_total"
FEEDBACK_INGESTS = "feedback_ingests_total"
FLEET_WORKER_UP = "fleet_worker_up"
FLEET_ROUTING = "fleet_routing_total"
FLEET_REQUESTS = "fleet_requests_total"
FLEET_REQUEST_SECONDS = "fleet_request_seconds"
FLEET_HEARTBEATS = "fleet_heartbeats_total"
FLEET_WORKER_QUERIES = "fleet_worker_queries_total"
MORSEL_POOL_WORKERS = "morsel_pool_workers"
MORSEL_CACHE_FLUSHES = "morsel_cache_flushes_total"
MORSELS_DISPATCHED = "morsels_dispatched_total"
MORSEL_ROWS_SHIPPED = "morsel_rows_shipped_total"
MORSEL_ROWS_REUSED = "morsel_rows_reused_total"
MORSEL_DISPATCH_SECONDS = "morsel_dispatch_seconds"


# -- events ------------------------------------------------------------
def _row(family: str, when: Optional[tuple] = None, **labels: str) -> tuple:
    return family, labels, when


_PLAN_CACHE = "plan_cache_events_total"

#: event kind -> rows of ``(family, labels, when)``.  Each row whose
#: ``when`` (a ``(payload key, value)`` pair, or None for always) holds
#: adds one to ``family``; a label value ``"$key"`` is read from the
#: event's payload, any other is literal.
EVENT_METRICS: dict[str, tuple] = {
    "plan_cache_statement_hit": (_row(_PLAN_CACHE, event="statement_hit"),),
    "plan_cache_statement_miss": (_row(_PLAN_CACHE, event="statement_miss"),),
    "plan_cache_hit": (
        _row(_PLAN_CACHE, event="hit"),
        _row(_PLAN_CACHE, ("rebound", True), event="rebind"),
    ),
    "plan_cache_miss": (_row(_PLAN_CACHE, event="miss"),),
    "plan_cache_shared_hit": (_row(_PLAN_CACHE, event="shared_hit"),),
    "plan_cache_store": (
        _row(_PLAN_CACHE, event="store"),
        _row(_PLAN_CACHE, ("shared", True), event="shared_store"),
    ),
    "plan_cache_evict": (
        _row(_PLAN_CACHE, event="evict"),
        _row(_PLAN_CACHE, ("reason", "stale_catalog"), event="stale_evict"),
        _row(_PLAN_CACHE, ("reason", "feedback"), event="feedback_invalidate"),
    ),
    "retry": (_row("session_retries_total", code="$code"),),
    "fallback": (_row("session_fallbacks_total", reason="$reason"),),
    "fleet_restart": (
        _row("fleet_restarts_total", worker="$worker", reason="$reason"),
    ),
}


# -- end-of-run folds --------------------------------------------------
def fold_search(front, stats, timed_out: bool) -> None:
    """One search's effort counters (``repro.optimizer.SearchStats``)."""
    m = front.registry
    if m is None:
        return
    for kind, count in stats.kind_counts.items():
        m.inc("scheduler_jobs_total", count, kind=kind)
    m.inc("search_jobs_total", stats.jobs_executed)
    m.inc("search_groups_total", stats.num_groups)
    m.inc("search_gexprs_total", stats.num_gexprs)
    m.inc("search_xforms_total", stats.xform_count)
    m.inc("search_pruned_alternatives_total", stats.pruned_alternatives)
    m.inc("search_costed_alternatives_total", stats.costed_alternatives)
    m.inc("search_bound_redos_total", stats.bound_redos)
    m.inc("search_derivation_cache_hits_total", stats.derivation_cache_hits)
    m.inc("search_property_cache_hits_total", stats.property_cache_hits)
    m.inc("optimizer_intern_events_total", stats.intern_hits, kind="hit")
    m.inc("optimizer_intern_events_total", stats.intern_misses, kind="miss")
    m.inc("feedback_lookup_hits_total", stats.feedback_hits)
    m.inc("feedback_corrections_total", stats.corrections_applied)
    m.set_gauge("search_memory_bytes", stats.memory_bytes)
    if timed_out:
        m.inc(GOVERNOR_TRIPS, kind="deadline_partial")


def fold_execution(front, plan, metrics, rows_out: int, analysis) -> None:
    """One execution's simulated clock (``ExecutionMetrics``) and, with
    per-node actuals (``PlanAnalysis``), per-operator work and skew."""
    m = front.registry
    if m is None:
        return
    m.inc("executor_queries_total")
    m.inc("executor_rows_total", rows_out, kind="returned")
    m.inc("executor_rows_total", metrics.rows_scanned, kind="scanned")
    m.inc("executor_rows_total", metrics.rows_moved, kind="moved")
    m.inc("executor_rows_total", metrics.rows_spilled, kind="spilled")
    m.inc("executor_net_bytes_total", metrics.net_bytes)
    m.observe("execution_seconds", metrics.simulated_seconds())
    if analysis is not None:
        m.observe("executor_segment_skew", analysis.inclusive(plan).skew())
        for node in plan.walk():
            m.inc("executor_operator_work_units_total",
                  analysis.exclusive_work(node), op=node.op.name)
            m.inc("executor_operator_rows_total",
                  analysis.stats_for(node).rows_out, op=node.op.name)
