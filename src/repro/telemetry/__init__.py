"""Fleet telemetry: metrics registry, EXPLAIN ANALYZE, query statistics.

The observability layer around the optimizer service (the feedback loop
"Query Optimization in the Wild" calls out as what industrial optimizers
live or die by):

- :class:`MetricsRegistry` — fleet-wide Counter/Gauge/Histogram families
  with label sets, exported as Prometheus text format or a JSON
  snapshot; written through the instrumentation front
  (:class:`repro.trace.Tracer`), whose event table and family names
  live in :mod:`repro.telemetry.families`.
- :class:`PlanAnalysis` — per-plan-node actuals (rows, work, network
  bytes) collected by the executor for EXPLAIN ANALYZE, on the same
  clock TAQO (Section 6.2) scores plans with.
- :class:`QueryStatsStore` — pg_stat_statements-style fingerprint-keyed
  aggregates of everything the sessions recording into it have
  optimized/executed.
"""

from repro.telemetry.analyze import NodeStats, PlanAnalysis
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.telemetry.stats_store import (
    QueryStats,
    QueryStatsStore,
    fingerprint_query,
    normalize_sql,
)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "parse_prometheus",
    "NodeStats",
    "PlanAnalysis",
    "QueryStats",
    "QueryStatsStore",
    "fingerprint_query",
    "normalize_sql",
]
