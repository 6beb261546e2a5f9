"""repro: a pure-Python reproduction of Orca (SIGMOD 2014).

"Orca: A Modular Query Optimizer Architecture for Big Data" — a modular,
Cascades-style, MPP-aware, cost-based query optimizer, rebuilt together
with every substrate its evaluation depends on: a simulated Greenplum-style
cluster and executor, the legacy Planner baseline, SQL-on-Hadoop engine
profiles, a TPC-DS-style workload, the DXL exchange format, the metadata
provider framework, and the AMPERe / TAQO verifiability tooling.

Quickstart (the stable session API)::

    import repro
    from repro.workloads import build_populated_db

    db = build_populated_db(scale=0.1)
    session = repro.connect(db, segments=8, search_deadline_ms=500)
    result = session.optimize(
        "SELECT d.d_year, sum(ss.ss_sales_price) AS s "
        "FROM store_sales ss, date_dim d "
        "WHERE ss.ss_sold_date_sk = d.d_date_sk "
        "GROUP BY d.d_year ORDER BY d.d_year")
    print(result.plan_source)        # "orca" — or a governed degradation
    rows = session.execute("SELECT count(*) FROM date_dim").rows

The raw optimizer stays available for ungoverned use::

    from repro import Orca, OptimizerConfig
    orca = Orca(db, config=OptimizerConfig(segments=8))
"""

from repro.config import ExecutionMode, OptimizationStage, OptimizerConfig
from repro.catalog.database import Database
from repro.engine.cluster import Cluster
from repro.engine.executor import ExecutionResult, Executor
from repro.errors import (
    FallbackError,
    FleetError,
    InjectedFault,
    MemoryQuotaExceeded,
    NoPlanError,
    OptimizerError,
    ParseError,
    ReproError,
    SearchTimeout,
    TelemetryError,
    TranslationError,
    WorkerError,
)
from repro.feedback import FeedbackStore
from repro.fleet import Fleet, FleetResult
from repro.fleet import connect as connect_fleet
from repro.gpos.governor import ResourceGovernor
from repro.obs import (
    FlightRecorder,
    SlowQueryLog,
    Span,
    chrome_trace,
    load_flight_dump,
    tracer_chrome_trace,
    validate_chrome_trace,
)
from repro.optimizer import (
    OptimizationResult,
    Orca,
    PLAN_SOURCES,
    SearchStats,
)
from repro.planner import LegacyPlanner
from repro.search.plan import PlanNode
from repro.service import (
    FaultInjector,
    FaultSpec,
    Session,
    SessionMetrics,
    connect,
)
from repro.telemetry import (
    MetricsRegistry,
    PlanAnalysis,
    QueryStats,
    QueryStatsStore,
)
from repro.trace import TraceEvent, Tracer

__version__ = "6.0.0"

__all__ = [
    # Session facade (stable public API)
    "connect",
    "Session",
    "SessionMetrics",
    # Multi-process fleet (same surface, many processes)
    "connect_fleet",
    "Fleet",
    "FleetResult",
    # Core optimizer
    "Orca",
    "OptimizationResult",
    "SearchStats",
    "PLAN_SOURCES",
    "OptimizerConfig",
    "OptimizationStage",
    "ExecutionMode",
    "LegacyPlanner",
    "ResourceGovernor",
    # Substrates
    "Database",
    "Cluster",
    "Executor",
    "ExecutionResult",
    "PlanNode",
    # Errors
    "ReproError",
    "OptimizerError",
    "ParseError",
    "TranslationError",
    "NoPlanError",
    "SearchTimeout",
    "MemoryQuotaExceeded",
    "FallbackError",
    "InjectedFault",
    "FleetError",
    "WorkerError",
    # Fault injection
    "FaultInjector",
    "FaultSpec",
    # Tracing
    "Tracer",
    "TraceEvent",
    # Observability: distributed traces, flight recorder, slow-query log
    "Span",
    "chrome_trace",
    "tracer_chrome_trace",
    "validate_chrome_trace",
    "FlightRecorder",
    "load_flight_dump",
    "SlowQueryLog",
    # Telemetry (fleet observability)
    "MetricsRegistry",
    "PlanAnalysis",
    "QueryStats",
    "QueryStatsStore",
    "TelemetryError",
    # Feedback-driven re-optimization
    "FeedbackStore",
    "__version__",
]
