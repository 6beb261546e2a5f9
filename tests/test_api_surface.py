"""Public API snapshot: the facade the session redesign stabilized.

Locks down ``repro.__all__``, the keyword-only constructor contracts,
the exception hierarchy, and the OptimizationResult field split, so an
accidental export or signature change fails CI instead of shipping.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro

#: The public surface, frozen.  Extending it is a deliberate act:
#: update this snapshot in the same PR that documents the addition.
EXPECTED_ALL = frozenset({
    # session facade
    "connect", "Session", "SessionMetrics",
    # multi-process fleet
    "connect_fleet", "Fleet", "FleetResult",
    # core optimizer
    "Orca", "OptimizationResult", "SearchStats", "PLAN_SOURCES",
    "OptimizerConfig", "OptimizationStage", "ExecutionMode",
    "LegacyPlanner", "ResourceGovernor",
    # substrates
    "Database", "Cluster", "Executor", "ExecutionResult", "PlanNode",
    # errors
    "ReproError", "OptimizerError", "ParseError", "TranslationError",
    "NoPlanError", "SearchTimeout", "MemoryQuotaExceeded",
    "FallbackError", "InjectedFault",
    "FleetError", "WorkerError",
    # fault injection
    "FaultInjector", "FaultSpec",
    # tracing
    "Tracer", "TraceEvent",
    # observability: distributed traces, flight recorder, slow-query log
    "Span", "chrome_trace", "tracer_chrome_trace", "validate_chrome_trace",
    "FlightRecorder", "load_flight_dump", "SlowQueryLog",
    # telemetry (fleet observability)
    "MetricsRegistry", "PlanAnalysis",
    "QueryStats", "QueryStatsStore", "TelemetryError",
    # feedback-driven re-optimization
    "FeedbackStore",
    "__version__",
})


#: Every keyword of every door, frozen the same way: an option comes
#: back by editing this snapshot in the PR that gives it a caller.
EXPECTED_SIGNATURES = {
    "connect": ("catalog", "config", "**options"),
    "Session": (
        "catalog", "config", "tracer", "faults", "fallback",
        "name", "telemetry", "stats_store", "feedback_store", "slow_log",
        "flight_recorder",
    ),
    "Fleet": (
        "catalog", "workers", "policy", "config", "fallback",
        "fault_specs", "fault_seed", "fault_rate",
        "request_timeout_seconds", "name", "tracer",
        "flight_dir", "slow_query_ms", "**config_kwargs",
    ),
    "connect_fleet": ("catalog", "**kwargs"),
    "Executor": (
        "cluster", "time_limit_seconds", "per_op_startup_units",
        "materialize_output_factor", "tracer", "execution_mode",
        "morsel_pool",
    ),
    "Orca": (
        "catalog", "config", "tracer", "faults", "feedback",
    ),
    "FeedbackStore": ("tracer",),
    "MetricsRegistry": (),
    "SlowQueryLog": ("threshold_ms", "stream", "name"),
    "ResourceGovernor": (
        "deadline_seconds", "job_limit", "memory_quota_bytes", "clock",
    ),
}

EXPECTED_CONFIG_FIELDS = (
    "segments", "disabled_rules", "stages", "enable_decorrelation",
    "enable_partition_elimination", "enable_cte_sharing",
    "enable_join_reordering", "enable_cost_bound_pruning",
    "execution_mode", "parallelism",
    "enable_plan_cache", "enable_cardinality_feedback",
    "trace_flags", "search_deadline_ms", "search_job_limit",
    "memory_quota_bytes",
)

#: Methods defined under ``src/repro`` that nothing outside ``tests/``
#: references.  Both wait on ROADMAP item 3 (the morsel pool); any other
#: method with no reference is deleted or moved to ``tests/helpers.py``.
REFERENCED_ONLY_BY_TESTS = frozenset({
    "Session.morsel_stats",
    "MorselPool._procs",
})

ROOT = Path(__file__).resolve().parent.parent


def _defined_methods():
    """``Class.method`` for every method under ``src/repro``, dunders
    aside."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                name = getattr(item, "name", "")
                if isinstance(item, ast.FunctionDef) and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield f"{node.name}.{name}"


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert frozenset(repro.__all__) == EXPECTED_ALL

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)

    def test_package_metadata_takes_its_version_from_the_attribute(self):
        """``repro.__version__`` is the single source: pyproject.toml
        must point at it and carry no version of its own."""
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert repro.__version__.count(".") == 2


class TestOptionSnapshot:
    @pytest.mark.parametrize("door", sorted(EXPECTED_SIGNATURES))
    def test_door_keywords_match_snapshot(self, door):
        params = inspect.signature(getattr(repro, door)).parameters.values()
        assert tuple(
            "**" + p.name if p.kind is p.VAR_KEYWORD else p.name
            for p in params
        ) == EXPECTED_SIGNATURES[door]

    def test_config_fields_match_snapshot(self):
        fields = dataclasses.fields(repro.OptimizerConfig)
        assert tuple(f.name for f in fields) == EXPECTED_CONFIG_FIELDS

    @pytest.mark.parametrize(
        "door", [repro.connect, repro.connect_fleet],
        ids=lambda door: door.__name__,
    )
    def test_unknown_keyword_is_the_configs_type_error(self, small_db, door):
        """A door keeps the keywords it declares; every other one is an
        ``OptimizerConfig`` field, so a name nobody declares is refused
        by ``OptimizerConfig`` itself, whether or not ``config=`` came
        with it."""
        for options in ({}, {"config": repro.OptimizerConfig(segments=2)}):
            with pytest.raises(TypeError, match="no_such_option") as refused:
                door(small_db, no_such_option=1, **options)
            with pytest.raises(TypeError) as expected:
                repro.OptimizerConfig(no_such_option=1)
            assert str(refused.value) == str(expected.value)

    def test_door_keywords_and_config_fields_mix(self, small_db):
        session = repro.connect(
            small_db, name="mixed", fallback=False, segments=2,
            config=repro.OptimizerConfig(segments=4, search_job_limit=7),
        )
        assert (session.name, session.fallback) == ("mixed", False)
        assert (
            session.config.segments, session.config.search_job_limit
        ) == (2, 7)


class TestDefinitionCensus:
    def test_every_method_is_referenced_outside_the_tests(self):
        """A method is reached as ``.name`` from the program, the
        benchmarks or the examples, or it is on the allowlist above."""
        text = "\n".join(
            path.read_text(encoding="utf-8")
            for top in ("src", "benchmarks", "examples")
            for path in sorted((ROOT / top).rglob("*.py"))
        )
        referenced = set(re.findall(r"\.(\w+)", text))
        unreferenced = {
            method for method in _defined_methods()
            if method.split(".")[1] not in referenced
        }
        assert unreferenced == REFERENCED_ONLY_BY_TESTS


class TestKeywordOnlyConstructors:
    def test_connect_catalog_positional_rest_keyword(self):
        sig = inspect.signature(repro.connect)
        params = list(sig.parameters.values())
        assert params[0].name == "catalog"
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for p in params[1:]:
            assert p.kind in (
                inspect.Parameter.KEYWORD_ONLY,
                inspect.Parameter.VAR_KEYWORD,
            ), p.name

    def test_orca_options_are_keyword_only(self, small_db):
        with pytest.raises(TypeError):
            repro.Orca(small_db, repro.OptimizerConfig())
        orca = repro.Orca(small_db, config=repro.OptimizerConfig(segments=2))
        assert orca.config.segments == 2

    def test_session_options_are_keyword_only(self, small_db):
        with pytest.raises(TypeError):
            repro.Session(small_db, repro.OptimizerConfig())

    def test_optimizer_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            repro.OptimizerConfig(4)
        config = repro.OptimizerConfig(segments=4)
        assert config.segments == 4

    def test_optimizer_config_is_frozen(self):
        config = repro.OptimizerConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.segments = 8

    def test_session_methods_exist(self):
        for method in ("optimize", "execute", "explain", "close"):
            assert callable(getattr(repro.Session, method))


class TestExecutionModeSurface:
    """The execution_mode= enum and its string spellings."""

    def test_enum_members(self):
        assert [m.value for m in repro.ExecutionMode] == ["row", "fused"]

    def test_coerce_accepts_strings_and_members(self):
        assert repro.ExecutionMode.coerce("fused") is repro.ExecutionMode.FUSED
        assert (repro.ExecutionMode.coerce(repro.ExecutionMode.ROW)
                is repro.ExecutionMode.ROW)
        with pytest.raises(ValueError):
            repro.ExecutionMode.coerce("vectorized")

    def test_config_default_is_fused(self):
        assert repro.OptimizerConfig().execution_mode is (
            repro.ExecutionMode.FUSED
        )

    def test_config_coerces_strings(self):
        config = repro.OptimizerConfig(execution_mode="row")
        assert config.execution_mode is repro.ExecutionMode.ROW

    def test_batch_mode_is_refused(self, small_db):
        """The batch engine is gone; its name is an error everywhere a
        mode is accepted, and the error lists what is left."""
        assert not hasattr(repro.ExecutionMode, "BATCH")
        for make in (
            lambda: repro.ExecutionMode.coerce("batch"),
            lambda: repro.OptimizerConfig(execution_mode="batch"),
            lambda: repro.Executor(
                repro.Cluster(small_db, segments=2), execution_mode="batch"
            ),
            lambda: repro.connect(small_db, execution_mode="batch"),
        ):
            with pytest.raises(ValueError, match=r"\['row', 'fused'\]"):
                make()

    def test_alias_and_enum_runs_are_bit_identical(self, small_db):
        """``Executor`` takes the string spelling of a mode as well."""
        orca = repro.Orca(small_db, config=repro.OptimizerConfig(segments=2))
        result = orca.optimize(
            "SELECT c, sum(b) FROM t1 WHERE b > 10 GROUP BY c ORDER BY c"
        )
        runs = []
        for mode in (repro.ExecutionMode.FUSED, "fused"):
            ex = repro.Executor(
                repro.Cluster(small_db, segments=2), execution_mode=mode
            )
            runs.append(
                ex.execute(result.plan, result.output_cols, analyze=True)
            )
        enum_run, alias_run = runs
        assert alias_run.rows == enum_run.rows
        for f in dataclasses.fields(enum_run.metrics):
            assert (getattr(alias_run.metrics, f.name)
                    == getattr(enum_run.metrics, f.name)), f.name
        assert alias_run.analysis.render() == enum_run.analysis.render()


class TestExceptionHierarchy:
    def test_optimizer_error_umbrella(self):
        for exc in (
            repro.ParseError,
            repro.TranslationError,
            repro.SearchTimeout,
            repro.MemoryQuotaExceeded,
            repro.FallbackError,
            repro.InjectedFault,
            repro.NoPlanError,
            repro.FleetError,
            repro.WorkerError,
        ):
            assert issubclass(exc, repro.OptimizerError), exc
            assert issubclass(exc, repro.ReproError), exc

    def test_error_codes_are_distinct(self):
        codes = {
            exc("x").code if exc is not repro.FallbackError
            else repro.FallbackError(ValueError(), ValueError()).code
            for exc in (
                repro.ParseError,
                repro.TranslationError,
                repro.OptimizerError,
            )
        } | {
            repro.SearchTimeout("x").code,
            repro.MemoryQuotaExceeded(used_bytes=1, quota_bytes=1).code,
            repro.InjectedFault("costing", 1).code,
        }
        assert len(codes) == 6

    def test_legacy_sql_error_is_a_parse_error(self):
        from repro.errors import BindError, SQLError

        assert issubclass(SQLError, repro.ParseError)
        assert issubclass(BindError, SQLError)


class TestResultShape:
    def test_plan_sources_constant(self):
        assert repro.PLAN_SOURCES == (
            "orca", "orca_partial", "planner_fallback", "cache"
        )

    def test_search_stats_fields(self):
        names = {f.name for f in dataclasses.fields(repro.SearchStats)}
        assert names == {
            "num_groups", "num_gexprs", "jobs_executed", "xform_count",
            "kind_counts", "memory_bytes", "job_log",
            "pruned_alternatives", "costed_alternatives",
            "derivation_cache_hits", "property_cache_hits",
            "intern_hits", "intern_misses",
            "feedback_hits", "corrections_applied",
        }

    def test_result_has_plan_source_field(self):
        names = {f.name for f in dataclasses.fields(repro.OptimizationResult)}
        assert "plan_source" in names
        assert "search_stats" in names
        assert "fallback_reason" in names

    def test_facade_smoke(self, small_db):
        session = repro.connect(small_db, segments=2)
        result = session.optimize("SELECT a FROM t1 WHERE a < 10")
        assert result.plan_source == "orca"
        assert session.metrics.queries == 1
