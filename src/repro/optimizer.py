"""Orca: the top-level optimizer facade.

Wires the full workflow of Section 4.1 together: SQL -> logical expression
(Query2DXL role) -> preprocessing -> Memo copy-in -> exploration /
statistics derivation / implementation / optimization (via the job
scheduler) -> plan extraction.  Shared CTE producers are optimized first,
in their own Memos, and attached during extraction (Section 7.2.2,
Common Expressions).

Sessions built on top of this facade (``repro.connect``) add resource
governance and Planner fallback; ``Orca`` itself enforces any limits set
on its :class:`OptimizerConfig` (raising the typed governor errors) but
never falls back — that separation keeps the core optimizer deterministic
and the degradation policy in one place (:mod:`repro.service.session`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.catalog.database import Database
from repro.config import OptimizerConfig
from repro.cost.model import CostModel
from repro.gpos.governor import ResourceGovernor
# Not called here: benchmarks/ledger/layers.py TARGETS binds it (ROADMAP item 1).
from repro.gpos.memory import deep_sizeof  # noqa: F401
from repro.interning import intern_stats
from repro.memo.memo import Memo
from repro.ops.physical import PhysicalCTEProducer
from repro.ops.scalar import ColRef, ColumnFactory
from repro.plancache import PlanCache, fingerprint
from repro.props.distribution import ANY_DIST, SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps
from repro.search.engine import SearchEngine
from repro.search.plan import PlanNode
from repro.sql.ast import SelectStmt
from repro.sql.parser import parse
from repro.sql.translator import TranslatedQuery, Translator
from repro.telemetry.analyze import PlanAnalysis
from repro.telemetry.families import fold_search
from repro.trace import NULL_TRACER, Tracer
from repro.xforms.normalization import preprocess

#: Where an optimization's plan came from (``OptimizationResult.plan_source``).
PLAN_SOURCES = ("orca", "orca_partial", "planner_fallback", "cache")


@dataclass
class SearchStats:
    """Search-effort counters for one optimization
    (:attr:`OptimizationResult.search_stats`)."""

    num_groups: int = 0
    num_gexprs: int = 0
    jobs_executed: int = 0
    xform_count: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)
    memory_bytes: int = 0
    job_log: list = field(default_factory=list)
    #: Branch-and-bound accounting (see repro.search.jobs): alternatives
    #: abandoned early, and alternatives fully costed.
    pruned_alternatives: int = 0
    costed_alternatives: int = 0
    #: Hot-path memoization accounting (all deterministic counts):
    #: stats derivations answered from the per-group cache, pure property
    #: derivations (delivered props / operator cost floors) answered from
    #: memo, and key-interning hits/misses observed during this
    #: optimization.
    derivation_cache_hits: int = 0
    property_cache_hits: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    #: Cardinality-feedback accounting (repro.feedback): derivations that
    #: found a confident observed cardinality for their group's shape,
    #: and the subset whose estimate actually changed.  Both zero when
    #: ``enable_cardinality_feedback`` is off.
    feedback_hits: int = 0
    corrections_applied: int = 0


@dataclass
class OptimizationResult:
    """Everything an optimization session produced."""

    plan: PlanNode
    output_cols: list[ColRef]
    output_names: list[str]
    #: Provenance of ``plan``: ``"orca"`` (full search), ``"orca_partial"``
    #: (best-so-far after a governor deadline), ``"planner_fallback"``
    #: (session fell back to the legacy Planner) or ``"cache"`` (served
    #: from the plan cache; no search ran).
    plan_source: str = "orca"
    #: The translated query; None for cache hits and Planner fallbacks.
    query: Optional[TranslatedQuery] = None
    #: The session's Memo; None for cache hits and Planner fallbacks.
    memo: Optional[Memo] = None
    #: Search-effort counters (all zero when no search ran).
    search_stats: SearchStats = field(default_factory=SearchStats)
    opt_time_seconds: float = 0.0
    #: Plan-cache outcome for this optimization: "" (cache disabled),
    #: "miss", "hit" (exact parameter match) or "rebind" (cached plan
    #: reused with re-bound parameter values).
    plan_cache: str = ""
    #: Confidence score of the root cardinality estimate (Section 4.1's
    #: open problem, implemented as multiplicative damping; see
    #: repro.stats.derivation).
    stats_confidence: float = 1.0
    #: The session's instrumentation front (:class:`repro.trace.Tracer`;
    #: the shared ``NULL_TRACER`` when nothing is attached).  Benchmarks
    #: and AMPERe dumps read per-stage timings and event counts from here.
    trace: Optional[Tracer] = None
    #: Error code of the optimizer failure a session recovered from
    #: (``plan_source == "planner_fallback"`` only), else None.
    fallback_reason: Optional[str] = None
    #: Per-node actuals from an ``analyze`` execution of this plan
    #: (attached by ``Session.execute(..., analyze=True)``), else None.
    analysis: Optional[PlanAnalysis] = None

    def explain(self, analyze: bool = False, search: bool = False) -> str:
        """Render the plan; with ``analyze=True``, annotate every node
        with the actual rows / work / network bytes of an execution; with
        ``search=True``, append where the search spent its job steps
        (:func:`_search_breakdown`)."""
        if not analyze:
            text = self.plan.explain()
        elif self.analysis is None:
            from repro.errors import OptimizerError

            raise OptimizerError(
                "no analysis attached: execute the plan with analyze=True "
                "(e.g. Session.execute(sql, analyze=True) or "
                "Executor(...).execute(..., analyze=True)) before "
                "explain(analyze=True)"
            )
        else:
            text = f"{self.analysis.render()}\n{self.analysis.summary()}"
        if search:
            text += "\n" + _search_breakdown(self.search_stats)
        return text


def _search_breakdown(stats: SearchStats) -> str:
    """Steps, finished jobs and summed step milliseconds per job kind,
    most expensive kind first.  Steps and milliseconds are read from
    ``stats.job_log`` (one record per step), finished jobs from
    ``stats.kind_counts``."""
    steps: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for record in stats.job_log:
        steps[record.kind] = steps.get(record.kind, 0) + 1
        seconds[record.kind] = seconds.get(record.kind, 0.0) + record.duration
    if not steps:
        return "Search: no job ran"
    total = sum(seconds.values())
    lines = [
        f"Search: {len(stats.job_log)} steps, {stats.jobs_executed} jobs, "
        f"{total * 1000:.2f} ms in job steps",
        f"  {'job kind':<16} {'steps':>7} {'done':>7} {'ms':>9} {'share':>6}",
    ]
    for kind in sorted(steps, key=lambda k: (-seconds[k], k)):
        done = stats.kind_counts.get(kind, 0)
        share = seconds[kind] / total if total else 0.0
        lines.append(
            f"  {kind:<16} {steps[kind]:>7} {done:>7}"
            f" {seconds[kind] * 1000:>9.3f} {share:>6.1%}"
        )
    return "\n".join(lines)


class Orca:
    """The optimizer (Figure 3): give it SQL, get a costed physical plan.

    All options are keyword-only (the session-API redesign):
    ``Orca(db, config=OptimizerConfig(segments=8))``.
    """

    def __init__(
        self,
        catalog: Database,
        *,
        config: Optional[OptimizerConfig] = None,
        tracer: Optional[Tracer] = None,
        faults=None,
        feedback=None,
    ):
        self.catalog = catalog
        self.config = config or OptimizerConfig()
        #: The instrumentation front: the caller's tracer with whatever
        #: sinks (flight ring, metrics registry) it already carries.
        self.tracer = tracer or NULL_TRACER
        #: Cooperative resource governor built from the config's limits,
        #: or None without any; re-armed per query, so per-session peaks
        #: accumulate.
        self.governor = ResourceGovernor.from_config(self.config)
        #: Fault-injection harness (repro.service.faults), or None.
        self.faults = faults
        #: Parameterized plan cache (Section 4.1 metadata versioning makes
        #: catalog-keyed invalidation safe); None when disabled.
        self.plan_cache: Optional[PlanCache] = (
            PlanCache(tracer=self.tracer)
            if self.config.enable_plan_cache
            else None
        )
        #: Cardinality feedback store (repro.feedback.FeedbackStore),
        #: gated on ``enable_cardinality_feedback``: with the flag off the
        #: store is None even when one is passed, keeping the search
        #: bit-identical to a build without the feedback subsystem.
        if self.config.enable_cardinality_feedback:
            if feedback is None:
                from repro.feedback import FeedbackStore

                feedback = FeedbackStore(tracer=self.tracer)
            self.feedback = feedback
        else:
            self.feedback = None
        #: Catalog versions at the last optimize(); a change triggers
        #: proactive eviction of stale plan-cache entries.
        self._seen_catalog_versions: Optional[tuple] = None
        #: :meth:`_catalog_versions`'s tuple and the catalog change
        #: counter it was built at.
        self._versions: tuple = ()
        self._versions_at: Optional[int] = None

    # ------------------------------------------------------------------
    def optimize(self, sql_or_stmt: Union[str, SelectStmt]) -> OptimizationResult:
        """Optimize one SQL statement end to end."""
        start = time.perf_counter()
        tracer = self.tracer
        if self.governor is not None:
            self.governor.arm()
            if self.faults is not None:
                self.faults.governor = self.governor
        cache = self.plan_cache
        is_text = isinstance(sql_or_stmt, str)
        cache_key = cache_params = None
        catalog_versions = None
        # The cache's statement front: a text seen before is not lexed,
        # parsed or fingerprinted again, so its trace has no ``parse``
        # span.
        seen = (
            cache.statement(sql_or_stmt)
            if is_text and cache is not None else None
        )
        if seen is not None:
            stmt, shape, cache_params = seen
        elif is_text:
            with tracer.span("parse"):
                stmt = parse(sql_or_stmt)
        else:
            stmt = sql_or_stmt
        if cache is not None:
            with tracer.span("plan_cache_lookup"):
                if seen is None:
                    shape, cache_params = fingerprint(stmt)
                    if is_text:
                        cache.remember_statement(
                            sql_or_stmt, stmt, shape, cache_params
                        )
                catalog_versions = self._catalog_versions()
                if catalog_versions != self._seen_catalog_versions:
                    # DDL/ANALYZE since the last optimize: entries keyed
                    # by the old versions are unreachable — drop them
                    # instead of letting them squat in the LRU.
                    if self._seen_catalog_versions is not None:
                        cache.evict_stale(catalog_versions)
                    self._seen_catalog_versions = catalog_versions
                cache_key = (shape, self.config, catalog_versions)
                hit = cache.lookup(cache_key, cache_params)
            if hit is not None:
                return OptimizationResult(
                    plan=hit.plan,
                    output_cols=hit.output_cols,
                    output_names=hit.output_names,
                    plan_source="cache",
                    plan_cache=hit.kind,
                    stats_confidence=hit.stats_confidence,
                    trace=tracer,
                    opt_time_seconds=time.perf_counter() - start,
                )
        factory = ColumnFactory()
        translator = Translator(
            self.catalog, factory, share_ctes=self.config.enable_cte_sharing
        )
        with tracer.span("translate"):
            query = translator.translate(stmt)
        result = self.optimize_translated(query, factory)
        if cache is not None:
            result.plan_cache = "miss"
            if result.plan_source == "orca":
                # Never cache degraded plans: a best-so-far plan must not
                # outlive the deadline that produced it.
                if self.feedback is not None:
                    from repro.feedback import plan_shapes

                    shapes = plan_shapes(result.plan)
                else:
                    shapes = frozenset()
                cache.store(
                    cache_key,
                    cache_params,
                    result.plan,
                    result.output_cols,
                    result.output_names,
                    stats_confidence=result.stats_confidence,
                    shapes=shapes,
                    catalog_versions=catalog_versions,
                )
        result.opt_time_seconds = time.perf_counter() - start
        return result

    def _catalog_versions(self) -> tuple:
        """Per-table metadata versions; any DDL/ANALYZE changes the cache
        key, implicitly invalidating stale plans.  Rebuilt only when the
        catalog's change counter has moved."""
        changes = self.catalog.changes
        if changes != self._versions_at:
            self._versions = tuple(sorted(
                (table.name, self.catalog.version(table.name))
                for table in self.catalog.tables()
            ))
            self._versions_at = changes
        return self._versions

    def optimize_translated(
        self, query: TranslatedQuery, factory: ColumnFactory
    ) -> OptimizationResult:
        """Optimize an already-translated query."""
        tracer = self.tracer
        cost_model = CostModel(segments=self.config.segments, tracer=tracer)
        cte_delivered: dict[int, object] = {}
        cte_producer_cols: dict[int, tuple] = {}
        cte_stats: dict[int, tuple] = {}
        cte_plans: dict[int, PlanNode] = {}
        stats = SearchStats()
        timed_out = False
        intern_before = intern_stats()

        def search(tree, req: RequiredProps) -> tuple[PlanNode, Memo]:
            """One tree through normalize, copy-in and the search."""
            nonlocal timed_out
            with tracer.span("normalize"):
                tree = preprocess(
                    tree, self.config, self.catalog.stats, factory
                )
            memo = Memo(tracer=tracer)
            with tracer.span("copy_in"):
                memo.set_root(memo.insert(tree))
            engine = SearchEngine(
                memo, self.config, factory, self.catalog.stats,
                cost_model, cte_stats=dict(cte_stats), tracer=tracer,
                governor=self.governor, faults=self.faults,
                feedback=self.feedback,
            )
            engine.rule_ctx.cte_delivered = cte_delivered
            engine.rule_ctx.cte_producer_cols = cte_producer_cols
            engine.cte_plans = cte_plans
            try:
                plan = engine.optimize(req)
            finally:
                stats.jobs_executed += engine.jobs_executed
                stats.xform_count += engine.xform_count
                stats.job_log.extend(engine.job_log)
                for kind, count in engine.kind_counts.items():
                    stats.kind_counts[kind] = (
                        stats.kind_counts.get(kind, 0) + count
                    )
                stats.memory_bytes += memo.tracker.total()
                stats.pruned_alternatives += engine.pruned_alternatives
                stats.costed_alternatives += engine.costed_alternatives
                stats.derivation_cache_hits += engine.deriver.cache_hits
                stats.property_cache_hits += engine.property_cache_hits
                stats.feedback_hits += engine.deriver.feedback_hits
                stats.corrections_applied += engine.deriver.corrections_applied
            timed_out = timed_out or engine.timed_out
            return plan, memo

        # 1. Optimize shared CTE producers first, in dependency order.
        for cte in query.cte_defs:
            plan, memo = search(cte.tree, RequiredProps(ANY_DIST))
            producer_plan = PlanNode(
                op=PhysicalCTEProducer(cte.cte_id, cte.output_cols),
                children=[plan],
                output_cols=list(cte.output_cols),
                rows_estimate=plan.rows_estimate,
                cost=plan.cost,
                delivered=plan.delivered,
                # The producer is cardinality-transparent: its actuals
                # are its child's, so it shares the child's shape.
                shape=plan.shape,
            )
            cte_plans[cte.cte_id] = producer_plan
            cte_delivered[cte.cte_id] = plan.delivered.dist
            cte_producer_cols[cte.cte_id] = tuple(cte.output_cols)
            cte_stats[cte.cte_id] = (
                memo.root_group().stats, tuple(cte.output_cols)
            )

        # 2. Optimize the main tree.
        plan, memo = search(
            query.tree,
            RequiredProps(
                SINGLETON,
                OrderSpec(
                    tuple(SortKey(c.id, asc) for c, asc in query.required_sort)
                ),
            ),
        )

        stats.num_groups = memo.num_groups()
        stats.num_gexprs = memo.num_gexprs()
        intern_after = intern_stats()
        stats.intern_hits = intern_after["hits"] - intern_before["hits"]
        stats.intern_misses = (
            intern_after["misses"] - intern_before["misses"]
        )
        root_stats = memo.root_group().stats
        # Post hoc, from counters the search keeps anyway: it runs the
        # same instruction stream with or without a metrics registry.
        fold_search(self.tracer, stats, timed_out)
        return OptimizationResult(
            plan=plan,
            plan_source="orca_partial" if timed_out else "orca",
            stats_confidence=(
                root_stats.confidence if root_stats is not None else 1.0
            ),
            output_cols=query.output_cols,
            output_names=query.output_names,
            query=query,
            memo=memo,
            search_stats=stats,
            trace=tracer,
        )
