"""Exception hierarchy for the optimizer and its substrates.

Mirrors the role of GPOS exception handling in the paper (Section 3): every
error raised inside an optimization session derives from :class:`ReproError`,
carries a stable error code, and can be serialized into an AMPERe dump
(Section 6.1) together with a stack trace.
"""

from __future__ import annotations



class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Stable machine-readable code, overridden by subclasses.
    code = "REPRO"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


class CatalogError(ReproError):
    """Unknown table/column/index or inconsistent schema definition."""

    code = "CATALOG"


class MetadataError(ReproError):
    """Metadata object missing from cache and provider, or version mismatch."""

    code = "METADATA"


class DXLError(ReproError):
    """Malformed DXL document or unsupported DXL construct."""

    code = "DXL"


class UnsupportedError(ReproError):
    """A query uses a feature the target engine profile does not support.

    Section 7.3 of the paper rules out large parts of TPC-DS on Impala,
    Presto and Stinger precisely because of such errors; engine profiles in
    :mod:`repro.systems` raise this to reproduce Figure 15.
    """

    code = "UNSUPPORTED"

    def __init__(self, feature: str, engine: str = ""):
        self.feature = feature
        self.engine = engine
        where = f" by {engine}" if engine else ""
        super().__init__(f"feature '{feature}' is not supported{where}")


class OptimizerError(ReproError):
    """Any failure raised inside an optimization session.

    The umbrella for everything that can go wrong between receiving a SQL
    string and handing back a physical plan: frontend failures
    (:class:`ParseError`, :class:`TranslationError`), search failures
    (:class:`NoPlanError`), resource-governor aborts
    (:class:`SearchTimeout`, :class:`MemoryQuotaExceeded`), injected
    faults (:class:`InjectedFault`) and fallback failures
    (:class:`FallbackError`).  A session layer that wants "give me a plan
    or tell me why" catches exactly this type.
    """

    code = "OPTIMIZER"


class ParseError(OptimizerError):
    """The SQL frontend could not produce a statement.

    :class:`SQLError` (and its :class:`BindError` subclass) remain the
    concrete types raised by the lexer/parser; they now sit under
    ``ParseError`` so the whole frontend family can be caught at once.
    """

    code = "PARSE"


class SQLError(ParseError):
    """Lexer/parser failure on SQL input."""

    code = "SQL"


class BindError(SQLError):
    """Name resolution failure (unknown column, ambiguous reference, ...)."""

    code = "BIND"


class TranslationError(OptimizerError):
    """Statement-to-logical-expression translation failed."""

    code = "TRANSLATE"


class NoPlanError(OptimizerError):
    """The search space contains no plan satisfying the required properties."""

    code = "NOPLAN"


class SearchTimeout(OptimizerError):
    """A resource governor aborted the search on a deadline.

    Raised cooperatively from inside :meth:`JobScheduler.run` when the
    session's wall-clock deadline or job-step limit is exhausted (the
    optimization timeouts GPOS enforces inside a host DBMS, Section 4.2).
    """

    code = "SEARCH_TIMEOUT"

    def __init__(
        self,
        message: str = "search deadline exceeded",
        *,
        elapsed_seconds: float = 0.0,
        deadline_seconds: float | None = None,
        steps: int = 0,
        job_limit: int | None = None,
    ):
        super().__init__(message)
        self.elapsed_seconds = elapsed_seconds
        self.deadline_seconds = deadline_seconds
        self.steps = steps
        self.job_limit = job_limit


class MemoryQuotaExceeded(OptimizerError):
    """A resource governor aborted the search on its memory quota.

    The analogue of a GPOS memory-pool exhaustion (Section 4.2): the
    optimizer's tracked allocations crossed the per-session byte quota.
    """

    code = "MEM_QUOTA"

    def __init__(
        self,
        message: str = "",
        *,
        used_bytes: int = 0,
        quota_bytes: int = 0,
    ):
        super().__init__(
            message
            or f"optimizer memory {used_bytes} bytes exceeds the "
               f"{quota_bytes}-byte session quota"
        )
        self.used_bytes = used_bytes
        self.quota_bytes = quota_bytes


class InjectedFault(OptimizerError):
    """A fault deliberately injected by :mod:`repro.service.faults`.

    ``transient`` hints whether a retry could succeed (the injector's
    schedule stops firing after a configured number of hits).
    """

    code = "FAULT"

    def __init__(self, site: str, hit: int, transient: bool = True):
        super().__init__(f"injected fault at site '{site}' (hit #{hit})")
        self.site = site
        self.hit = hit
        self.transient = transient


class FallbackError(OptimizerError):
    """Both the optimizer and the Planner safety net failed.

    Chains the original optimizer error (``original``) and the fallback
    failure (``__cause__``); this is the only way a governed session
    surfaces an error when fallback is enabled.
    """

    code = "FALLBACK"

    def __init__(self, original: Exception, fallback_exc: Exception):
        super().__init__(
            f"planner fallback failed ({fallback_exc}) after optimizer "
            f"error ({original})"
        )
        self.original = original
        self.fallback_exc = fallback_exc


class FleetError(OptimizerError):
    """The multi-process fleet could not serve a request at all.

    Raised by :class:`repro.fleet.Fleet` only after routing retries are
    exhausted — every routable worker died or wedged faster than the
    orchestrator could restart one.  Under the fleet's availability
    contract this indicates a broken deployment, not a bad query.
    """

    code = "FLEET"


class WorkerError(OptimizerError):
    """A fleet worker reported an error the orchestrator could not map
    back onto a local exception class.

    Carries the worker-side error code/class so callers (and the CLI
    exit-code table) can still discriminate; queries that fail in a
    *typed* way (e.g. ``ParseError``) are re-raised as that type instead.
    """

    code = "WORKER"

    def __init__(
        self,
        message: str = "",
        *,
        worker: int = -1,
        remote_code: str = "",
        remote_class: str = "",
    ):
        super().__init__(message)
        self.worker = worker
        self.remote_code = remote_code
        self.remote_class = remote_class


class TelemetryError(ReproError):
    """Invalid telemetry usage: bad metric/label names, unbounded label
    cardinality (e.g. raw SQL used as a label value), type conflicts, or
    malformed Prometheus exposition output."""

    code = "TELEMETRY"


class OutOfMemoryError(ReproError):
    """Simulated executor exceeded its per-node working memory without spill.

    Reproduces the ``*`` bars of Figure 13 (queries that run out of memory in
    Impala because partial results cannot spill to disk).
    """

    code = "OOM"

    def __init__(self, operator: str, needed_bytes: int, limit_bytes: int):
        self.operator = operator
        self.needed_bytes = needed_bytes
        self.limit_bytes = limit_bytes
        super().__init__(
            f"{operator} needs {needed_bytes} bytes but the per-node memory "
            f"limit is {limit_bytes} bytes and spilling is disabled"
        )


class ExecutionError(ReproError):
    """Runtime failure in the simulated executor."""

    code = "EXEC"


class TimeoutError_(ReproError):
    """A stage or a query exceeded its configured budget.

    Named with a trailing underscore to avoid shadowing the builtin.
    Reproduces the 10000-second execution cap of Section 7.2.2 and the
    per-stage optimization timeouts of Section 4.1.
    """

    code = "TIMEOUT"
