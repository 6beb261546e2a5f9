"""The search engine: stages, job orchestration and plan costing.

Drives the optimization workflow of Section 4.1 over the Memo using the
job scheduler of Section 4.2, honoring the multi-stage specification of
the optimizer configuration (rule subsets with optional job budgets and
cost thresholds).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.config import OptimizerConfig
from repro.cost.model import CostModel
from repro.errors import SearchTimeout
from repro.gpos.memory import DELIVERED_CACHE_ENTRY_BYTES
# Not called here: benchmarks/ledger/layers.py TARGETS binds it (ROADMAP item 1).
from repro.gpos.memory import deep_sizeof  # noqa: F401
from repro.gpos.scheduler import JobRecord, JobScheduler
from repro.memo.context import PlanInfo
from repro.memo.memo import GroupExpression, Memo
from repro.ops.scalar import ColumnFactory
from repro.props.required import RequiredProps
from repro.search.extractor import extract_plan
from repro.search.jobs import JobGroupOptimize
from repro.search.plan import PlanNode
from repro.stats.derivation import StatsDeriver
from repro.trace import NULL_TRACER
from repro.xforms.registry import default_rule_set
from repro.xforms.rule import RuleContext


class SearchEngine:
    """Optimizes one Memo end to end."""

    def __init__(
        self,
        memo: Memo,
        config: OptimizerConfig,
        column_factory: ColumnFactory,
        table_stats: Callable,
        cost_model: Optional[CostModel] = None,
        cte_stats: Optional[dict] = None,
        tracer=None,
        governor=None,
        faults=None,
        feedback=None,
    ):
        self.memo = memo
        self.config = config
        self.column_factory = column_factory
        self.tracer = tracer or NULL_TRACER
        #: Cooperative resource governor (repro.gpos.governor) enforced
        #: by the job scheduler; None when the session is ungoverned.
        self.governor = governor
        #: Fault-injection harness (repro.service.faults); None in
        #: production sessions.
        self.faults = faults
        #: Cardinality feedback store (repro.feedback.FeedbackStore); when
        #: set, statistics derivation blends in observed actuals and plan
        #: extraction annotates nodes with their feedback shapes.
        self.feedback = feedback
        self.cost_model = cost_model or CostModel(segments=config.segments)
        self.deriver = StatsDeriver(
            memo, config, table_stats, cte_stats, faults=faults,
            feedback=feedback,
        )
        self.rule_ctx = RuleContext(
            memo=memo,
            config=config,
            column_factory=column_factory,
            table_stats=table_stats,
        )
        self.exploration_rules = []
        self.implementation_rules = []
        self.xform_count = 0
        #: Optimization stage counter; per-expression plan caches from an
        #: earlier epoch are recomputed (child groups may have improved).
        self.epoch = 0
        self.job_log: list[JobRecord] = []
        self.jobs_executed = 0
        self.kind_counts: dict[str, int] = {}
        #: Branch-and-bound accounting: alternatives abandoned before
        #: full costing, alternatives fully costed, and bounded searches
        #: re-run because a later requester needed a looser bound.
        self.pruned_alternatives = 0
        self.costed_alternatives = 0
        self.bound_redos = 0
        #: Memoization accounting: pure derivation sub-results (delivered
        #: properties, operator cost floors) answered from cache instead
        #: of re-derived.  Deterministic — caching only skips recomputing
        #: values that are bit-identical.
        self.property_cache_hits = 0
        #: gexpr id -> (memo merge generation, operator local-cost floor).
        #: Merges re-root child groups (changing resolved stats), so
        #: entries are invalidated by generation.
        self._op_floor_cache: dict[int, tuple[int, float]] = {}
        #: cte_id -> optimized producer PlanNode (attached at extraction).
        self.cte_plans: dict[int, PlanNode] = {}
        #: Set when a governor deadline cut this search short but a
        #: best-so-far plan was still extracted (graceful degradation).
        self.timed_out = False

    # ------------------------------------------------------------------
    def optimize(self, req: RequiredProps) -> PlanNode:
        """Run all configured stages and extract the best plan.

        A governor deadline (:class:`SearchTimeout`) raised mid-search is
        absorbed when some complete plan already satisfies the root
        request — the best-so-far plan is extracted and ``timed_out``
        records the degradation.  With no plan yet, the timeout
        propagates (the session layer then falls back to the Planner).
        """
        root = self.memo.root
        assert root is not None, "memo root not set"
        try:
            for stage in self.config.stages:
                with self.tracer.span(f"search:{stage.name}"):
                    self._run_stage(req, stage.rules, stage.timeout_jobs)
                if stage.cost_threshold is not None:
                    cost = self.best_cost(req)
                    if cost is not None and cost <= stage.cost_threshold:
                        break
            if self.best_cost(req) is None:
                # Safety net: a final unbounded stage with every enabled
                # rule, guaranteeing a plan when earlier stage budgets cut
                # search off.
                with self.tracer.span("search:safety-net"):
                    self._run_stage(req, None, None)
        except SearchTimeout as exc:
            if self.best_cost(req) is None:
                raise
            self.timed_out = True
            if self.tracer.enabled:
                self.tracer.record(
                    "governor_timeout",
                    elapsed_seconds=exc.elapsed_seconds,
                    steps=exc.steps,
                    best_cost=self.best_cost(req),
                )
        with self.tracer.span("extract"):
            return self.extract(req)

    def best_cost(self, req: RequiredProps) -> Optional[float]:
        group = self.memo.root_group()
        ctx = group.existing_context(req)
        if ctx is not None and ctx.has_plan():
            return ctx.best_cost
        return None

    def extract(self, req: RequiredProps) -> PlanNode:
        if self.faults is not None:
            self.faults.fire("extraction", group=self.memo.root)
        return extract_plan(
            self.memo, self.memo.root, req, self.cte_plans,
            shape_fn=self.deriver.group_shape if self.feedback is not None
            else None,
        )

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        req: RequiredProps,
        stage_rules: Optional[frozenset[str]],
        job_budget: Optional[int],
    ) -> None:
        rules = default_rule_set(self.config, stage_rules, tracer=self.tracer)
        self.exploration_rules = [r for r in rules if r.is_exploration]
        self.implementation_rules = [r for r in rules if r.is_implementation]
        self.epoch += 1
        self._reset_fixpoints()
        # The root request is unbounded: every plan is interesting until
        # an incumbent exists (the bound then tightens as children cost).
        self.memo.root_group().context(req).request_bound(math.inf)
        scheduler = JobScheduler(tracer=self.tracer, governor=self.governor)
        if self.governor is not None:
            self.governor.set_memory_probe(self.memo.tracker.total)
        try:
            scheduler.run(
                JobGroupOptimize(self, self.memo.root, req),
                job_budget=job_budget,
            )
        finally:
            # Accumulate whatever ran, even when a governor abort unwinds
            # mid-stage — partial results still feed metrics and traces.
            self.job_log.extend(scheduler.job_log)
            self.jobs_executed += scheduler.jobs_executed
            for kind, count in scheduler.kind_counts.items():
                self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count

    def _reset_fixpoints(self) -> None:
        """Allow new-stage rules to fire on already-visited expressions."""
        for group in self.memo.live_groups():
            group.explored = False
            group.implemented = False
            for ctx in group.contexts.values():
                ctx.reset_for_redo()
            for gexpr in group.gexprs:
                if not gexpr.op.is_enforcer:
                    gexpr.explored = False
                    gexpr.implemented = False

    # ------------------------------------------------------------------
    # Pure-function memoization.  Everything cached here is a
    # deterministic function of immutable inputs (operator + explicit
    # arguments), so hits return bit-identical values and job counts,
    # plan choices and traces are unchanged — only repeated work is
    # skipped.  Dynamic search state (context incumbents, group cost
    # floors) is deliberately NOT cached.
    # ------------------------------------------------------------------
    def op_floor(self, gexpr: GroupExpression) -> float:
        """Lower bound on ``gexpr``'s operator-local cost, memoized per
        (gexpr, merge generation)."""
        if not self.config.enable_derivation_cache:
            return self._compute_op_floor(gexpr)
        generation = self.memo.merge_generation
        cached = self._op_floor_cache.get(gexpr.id)
        if cached is not None and cached[0] == generation:
            self.property_cache_hits += 1
            return cached[1]
        floor = self._compute_op_floor(gexpr)
        self._op_floor_cache[gexpr.id] = (generation, floor)
        return floor

    def _compute_op_floor(self, gexpr: GroupExpression) -> float:
        stats = self.deriver.derive(gexpr.group_id)
        child_stats = [self.deriver.derive(c) for c in gexpr.child_groups]
        return self.cost_model.local_cost_floor(gexpr.op, stats, child_stats)

    _NO_DELIVERED = object()

    def derive_delivered(self, gexpr: GroupExpression, child_delivered):
        """``op.derive_delivered(child_delivered)``, memoized per child
        property combination (None results included)."""
        if not self.config.enable_derivation_cache:
            return gexpr.op.derive_delivered(child_delivered)
        key = tuple([d.id for d in child_delivered])
        cached = gexpr.delivered_cache.get(key, self._NO_DELIVERED)
        if cached is not self._NO_DELIVERED:
            self.property_cache_hits += 1
            return cached
        delivered = gexpr.op.derive_delivered(child_delivered)
        gexpr.delivered_cache[key] = delivered
        self.memo.tracker.charge(
            "derivation_cache", DELIVERED_CACHE_ENTRY_BYTES
        )
        return delivered

    # ------------------------------------------------------------------
    def cost_alternative(
        self,
        gexpr: GroupExpression,
        req: RequiredProps,
        alt: tuple[RequiredProps, ...],
    ) -> Optional[PlanInfo]:
        """Cost one child-request alternative of a group expression.

        Returns None when any child lacks a plan, the delivered property
        combination is invalid, or the result does not satisfy ``req``.
        """
        memo = self.memo
        derive = self.deriver.derive
        child_delivered = []
        child_costs = []
        child_stats = []
        for child_group_id, child_req in zip(gexpr.child_groups, alt):
            ctx = memo.group(child_group_id).contexts.get(child_req.id)
            if ctx is None or not ctx.has_plan():
                return None
            info = memo.gexpr(ctx.best_gexpr_id).plans.get(child_req.id)
            if info is None:
                return None
            child_delivered.append(info.delivered)
            child_costs.append(ctx.best_cost)
            child_stats.append(derive(child_group_id))
        delivered = self.derive_delivered(gexpr, child_delivered)
        if delivered is None or not delivered.satisfies(req):
            return None
        stats = self.deriver.derive(gexpr.group_id)
        if self.faults is not None:
            self.faults.fire("costing", gexpr_id=gexpr.id)
        local = self.cost_model.local_cost(
            gexpr.op, stats, child_stats, child_delivered, child_costs, delivered
        )
        total = local + sum(child_costs)
        if not math.isfinite(total):
            return None
        return PlanInfo(
            cost=total,
            child_reqs=tuple(alt),
            delivered=delivered,
            local_cost=local,
            epoch=self.epoch,
        )
