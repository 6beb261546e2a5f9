"""Optimizer configuration: rule toggles, stages, and engine knobs.

The paper emphasizes that every transformation rule is a self-contained
component that can be explicitly activated or deactivated in Orca
configurations (Section 3), and that optimization can be staged, where each
stage runs a subset of rules under an optional timeout / cost threshold
(Section 4.1, "Multi-Stage Optimization").  :class:`OptimizerConfig` carries
all of that plus the cluster description needed by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Container, Optional, Sequence


class ExecutionMode(str, Enum):
    """How physical plans are executed on the simulated cluster.

    Both modes run the compiled engine — filters, projects, hash-join
    probes and aggregation sinks as generated-Python loop functions,
    expressions inlined, everything else on one handler table — and
    produce float-identical rows, ExecutionMetrics and EXPLAIN ANALYZE
    per-node actuals.  They differ only in how far operators are fused:

    - ``ROW``: fusion off.  Every streaming operator and sink is a
      one-operator stage whose input is materialized.
    - ``FUSED``: every breaker-free operator chain (scan→filter→project,
      probe→project, join→agg, a lone filter) is one stage, with
      nothing materialized between its operators.  Only this mode
      dispatches to a morsel pool.
    """

    ROW = "row"
    FUSED = "fused"

    @classmethod
    def coerce(cls, value) -> "ExecutionMode":
        """Accept an ExecutionMode or its string value (CLI-friendly)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise ValueError(
            f"invalid execution mode {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


@dataclass(frozen=True)
class OptimizationStage:
    """One optimization stage: a rule subset plus termination conditions.

    A stage terminates when (1) a plan with cost below ``cost_threshold`` is
    found, (2) ``timeout_jobs`` optimization jobs have been executed (our
    deterministic stand-in for a wall-clock timeout), or (3) the rule subset
    is exhausted -- exactly the three conditions in Section 4.1.
    """

    name: str = "default"
    #: Rule names to run in this stage; ``None`` means "all enabled rules".
    rules: Optional[frozenset[str]] = None
    #: Stop early once a complete plan cheaper than this is known.
    cost_threshold: Optional[float] = None
    #: Deterministic budget: maximum number of scheduler jobs to run.
    timeout_jobs: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class OptimizerConfig:
    """Immutable configuration for one optimization session.

    Keyword-only: ``OptimizerConfig(segments=8)`` — positional
    construction was removed in the session-API redesign so fields can be
    added and reordered without silently changing call sites.
    """

    #: Number of segment instances in the simulated cluster (Section 2.1).
    segments: int = 16
    #: Rules disabled by name (e.g. ``{"InnerJoin2NLJoin"}``).
    disabled_rules: frozenset[str] = frozenset()
    #: Optimization stages, applied in order (Section 4.1).
    stages: tuple[OptimizationStage, ...] = (OptimizationStage(),)
    #: Enable subquery decorrelation (Apply -> Join unnesting, Section 7.2.2).
    enable_decorrelation: bool = True
    #: Enable static + dynamic partition elimination (Section 7.2.2, ref [2]).
    enable_partition_elimination: bool = True
    #: Enable shared CTE producer/consumer planning for WITH (Section 7.2.2).
    enable_cte_sharing: bool = True
    #: Enable cost-based join-order exploration (commutativity/associativity).
    enable_join_reordering: bool = True
    #: Branch-and-bound search pruning (Section 4.1, Fig. 5): candidates
    #: whose partially accumulated cost already reaches the incumbent of
    #: their (group, request) context are abandoned without costing the
    #: rest of their children.
    #: Off = exhaustive costing; the chosen plan's cost is identical either
    #: way, which is what makes pruning directly testable.
    enable_cost_bound_pruning: bool = True
    #: How physical plans execute: ``ExecutionMode.FUSED`` (default)
    #: compiles every breaker-free operator chain into one generated
    #: pipeline function, ``ROW`` every operator into a stage of its
    #: own (fusion off).  Rows, ExecutionMetrics and EXPLAIN ANALYZE are
    #: float-identical in both.
    execution_mode: ExecutionMode = ExecutionMode.FUSED
    #: Morsel-driven intra-query parallelism for the fused engine's
    #: streaming phase: N >= 2 dispatches per-bucket morsels across a
    #: persistent pool of N forked worker processes (float-identical to
    #: serial — the metric replay stays sequential on the coordinator);
    #: ``0``/``1`` keep today's serial path bit-identical.  Only the
    #: FUSED mode consults it.
    parallelism: int = 0
    #: Cache optimized plans keyed by (normalized-query fingerprint,
    #: config, catalog version); literals are parameter markers, so a
    #: repeated query shape skips search and re-binds parameters instead.
    enable_plan_cache: bool = False
    #: Feedback-driven re-optimization: blend observed cardinalities from
    #: EXPLAIN ANALYZE actuals (ingested into a FeedbackStore, keyed by
    #: logical shape) into statistics derivation on the next optimization
    #: of a matching sub-expression.  Off (the default) keeps the search
    #: bit-identical to a build without the feedback subsystem.
    enable_cardinality_feedback: bool = False
    #: Arbitrary named trace flags, serialized into AMPERe dumps (Listing 2).
    trace_flags: frozenset[str] = frozenset()
    #: Per-query wall-clock deadline for the search, in milliseconds.  The
    #: resource governor checks it cooperatively on every job step and
    #: raises :class:`repro.errors.SearchTimeout`; ``None`` disables it.
    search_deadline_ms: Optional[float] = None
    #: Deterministic per-query deadline: total job *steps* across all
    #: stages (unlike a stage's ``timeout_jobs``, exhaustion raises
    #: :class:`SearchTimeout` instead of silently abandoning work).
    search_job_limit: Optional[int] = None
    #: Per-query byte quota on tracked optimizer memory (the GPOS memory
    #: pool, Section 4.2), probed every
    #: :data:`repro.gpos.governor.MEMORY_CHECK_STRIDE` job steps; crossing
    #: it raises :class:`repro.errors.MemoryQuotaExceeded`.  ``None``
    #: disables it.
    memory_quota_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.execution_mode, ExecutionMode):
            object.__setattr__(
                self, "execution_mode",
                ExecutionMode.coerce(self.execution_mode),
            )

    def governed(self) -> bool:
        """True when any per-query resource limit is configured."""
        return (
            self.search_deadline_ms is not None
            or self.search_job_limit is not None
            or self.memory_quota_bytes is not None
        )

    def with_disabled(self, *rule_names: str) -> "OptimizerConfig":
        """Return a copy with additional rules disabled (for ablations)."""
        return replace(
            self, disabled_rules=self.disabled_rules | frozenset(rule_names)
        )

    def with_stages(self, stages: Sequence[OptimizationStage]) -> "OptimizerConfig":
        """Return a copy using the given optimization stages."""
        return replace(self, stages=tuple(stages))

    def rule_enabled(self, name: str) -> bool:
        """True if the named transformation rule may fire in this session."""
        return name not in self.disabled_rules


def split_options(
    options: dict, own: Container[str] = (), config: Optional[OptimizerConfig] = None
) -> tuple[OptimizerConfig, dict]:
    """Split a door's ``**options`` into its config and the rest.

    The keywords named in ``own`` (the ones the door declares itself)
    come back as they are.  Every other one is an
    :class:`OptimizerConfig` field, merged over ``config`` — so a name
    nobody knows gets ``OptimizerConfig``'s own ``TypeError``.
    """
    fields = {k: v for k, v in options.items() if k not in own}
    rest = {k: v for k, v in options.items() if k in own}
    if config is None:
        config = OptimizerConfig(**fields)
    elif fields:
        config = replace(config, **fields)
    return config, rest


#: Configuration mirroring the paper's MPP experiments (Section 7.2.1).
MPP_DEFAULT = OptimizerConfig(segments=16)

#: Configuration mirroring the paper's Hadoop experiments (Section 7.3.1).
HADOOP_DEFAULT = OptimizerConfig(segments=8)
