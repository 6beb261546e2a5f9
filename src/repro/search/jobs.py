"""The seven optimization job kinds (Section 4.2).

- ``Exp(g)`` / ``Exp(gexpr)``: generate logically equivalent expressions
- ``Imp(g)`` / ``Imp(gexpr)``: generate physical implementations
- ``Opt(g, req)`` / ``Opt(gexpr, req)``: find the least-cost plan
  satisfying an optimization request
- ``Xform(gexpr, t)``: apply one transformation rule

Jobs suspend while their children run and resume when notified; the
dependency shapes match Figure 8 (optimizing a group optimizes its
expressions; optimizing an expression optimizes its children's groups;
exploring an expression first explores its children's groups, then runs
its exploration rules).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional, Sequence

from repro.gpos.scheduler import Job
from repro.memo.context import PlanInfo
from repro.memo.memo import GroupExpression
from repro.ops.physical import (
    PhysicalBroadcast,
    PhysicalGather,
    PhysicalGatherMerge,
    PhysicalRedistribute,
    PhysicalSort,
)
from repro.props.distribution import (
    ANY_DIST,
    HashedDist,
    ReplicatedDist,
    SingletonDist,
)
from repro.props.required import RequiredProps

if TYPE_CHECKING:
    from repro.search.engine import SearchEngine

#: The weakest possible optimization request: any distribution, no sort
#: order.  Every physical plan of a group satisfies it, so the best cost
#: of a *completed, exhaustive* context for this request is the global
#: minimum over all plans of the group — a sound lower bound usable for
#: branch-and-bound pruning before stricter requests are even issued.
WEAKEST_REQ = RequiredProps(ANY_DIST)
_WEAKEST_ID = WEAKEST_REQ.id
_isfinite = math.isfinite


def group_cost_floor(memo, group_id: int) -> float:
    """Sound lower bound on the cost of any plan rooted in ``group_id``.

    Returns the best cost of the group's completed exhaustive
    (ANY-dist, no-order) context when one exists, else 0.0.  Every
    request runs unbounded, so a finished context's best truly is the
    group minimum.
    """
    ctx = memo.group(group_id).contexts.get(_WEAKEST_ID)
    # Called ~1.5k times per statement: has_plan() is spelled out.
    if (
        ctx is not None
        and ctx.done
        and ctx.best_gexpr_id is not None
        and _isfinite(ctx.best_cost)
    ):
        return ctx.best_cost
    return 0.0


def gexpr_cost_floor(engine: "SearchEngine", gexpr: GroupExpression) -> float:
    """Sound lower bound on the total cost of any plan rooted at
    ``gexpr``: the child groups' cost floors plus the operator's own
    local cost at the best-case layout (:meth:`CostModel.local_cost_floor`;
    the rule is stated in the :mod:`repro.cost.model` docstring).

    The group cost floors are live search state and are re-read every
    call; the operator-local part is pure and served from the engine's
    memo (:meth:`SearchEngine.op_floor`)."""
    memo = engine.memo
    total = 0.0
    for child in gexpr.child_groups:
        total += group_cost_floor(memo, child)
    return total + engine.op_floor(gexpr)


class JobGroupExplore(Job):
    """Exp(g): explore all group expressions in group g to fixpoint."""

    kind = "Exp(g)"

    def __init__(self, engine: "SearchEngine", group_id: int):
        super().__init__()
        self.engine = engine
        self.group_id = engine.memo.find(group_id)
        self.goal = ("exp-g", self.group_id)

    def step(self, scheduler):
        group = self.engine.memo.group(self.group_id)
        pending = [
            g for g in group.logical_gexprs() if not g.explored
        ]
        if not pending:
            group.explored = True
            return None
        return [JobGexprExplore(self.engine, g) for g in pending]


class JobGexprExplore(Job):
    """Exp(gexpr): explore children, then run exploration rules."""

    kind = "Exp(gexpr)"

    def __init__(self, engine: "SearchEngine", gexpr: GroupExpression):
        super().__init__()
        self.engine = engine
        self.gexpr = gexpr
        self.goal = ("exp-x", gexpr.id)

    def step(self, scheduler):
        if self._step == 0:
            self._step = 1
            children = [
                JobGroupExplore(self.engine, c) for c in self.gexpr.child_groups
            ]
            return children or self.step(scheduler)
        if self._step == 1:
            self._step = 2
            jobs = [
                JobXform(self.engine, self.gexpr, rule)
                for rule in self.engine.exploration_rules
                if rule.name not in self.gexpr.applied_rules
                and rule.matches(self.gexpr)
            ]
            if jobs:
                return jobs
        self.gexpr.explored = True
        return None


class JobGroupImplement(Job):
    """Imp(g): implement all group expressions in group g."""

    kind = "Imp(g)"

    def __init__(self, engine: "SearchEngine", group_id: int):
        super().__init__()
        self.engine = engine
        self.group_id = engine.memo.find(group_id)
        self.goal = ("imp-g", self.group_id)

    def step(self, scheduler):
        group = self.engine.memo.group(self.group_id)
        if self._step == 0:
            self._step = 1
            return [JobGroupExplore(self.engine, self.group_id)]
        pending = [
            g for g in group.logical_gexprs() if not g.implemented
        ]
        if not pending:
            group.implemented = True
            return None
        return [JobGexprImplement(self.engine, g) for g in pending]


class JobGexprImplement(Job):
    """Imp(gexpr): run implementation rules on one expression."""

    kind = "Imp(gexpr)"

    def __init__(self, engine: "SearchEngine", gexpr: GroupExpression):
        super().__init__()
        self.engine = engine
        self.gexpr = gexpr
        self.goal = ("imp-x", gexpr.id)

    def step(self, scheduler):
        if self._step == 0:
            self._step = 1
            jobs = [
                JobXform(self.engine, self.gexpr, rule)
                for rule in self.engine.implementation_rules
                if rule.name not in self.gexpr.applied_rules
                and rule.matches(self.gexpr)
            ]
            if jobs:
                return jobs
        self.gexpr.implemented = True
        return None


class JobXform(Job):
    """Xform(gexpr, t): apply rule t and copy results into the Memo."""

    kind = "Xform"

    def __init__(self, engine: "SearchEngine", gexpr: GroupExpression, rule):
        super().__init__()
        self.engine = engine
        self.gexpr = gexpr
        self.rule = rule
        self.goal = ("xform", gexpr.id, rule.name)

    def step(self, scheduler):
        if self.rule.name in self.gexpr.applied_rules:
            return None
        self.gexpr.applied_rules.add(self.rule.name)
        if self.engine.faults is not None:
            self.engine.faults.fire(
                "xform_apply", rule=self.rule.name, gexpr_id=self.gexpr.id
            )
        results = self.rule.apply(self.gexpr, self.engine.rule_ctx)
        group_id = self.engine.memo.find(self.gexpr.group_id)
        for expr in results:
            self.engine.memo.insert(expr, target_group=group_id)
        self.engine.xform_count += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.record(
                "xform_applied",
                rule=self.rule.name, gexpr_id=self.gexpr.id,
                results=len(results),
            )
        return None


class JobGroupOptimize(Job):
    """Opt(g, req): least-cost plan rooted in group g satisfying req.

    The goal includes the context's redo generation: a stage reset or a
    group merge reopens a finished context (see
    ``OptimizationContext.reset_for_redo``), and the bumped generation
    keeps the redo from deduplicating against the finished run.
    """

    kind = "Opt(g,req)"

    def __init__(self, engine: "SearchEngine", group_id: int, req: RequiredProps):
        super().__init__()
        self.engine = engine
        memo = engine.memo
        self.group_id = memo.find(group_id)
        self.req = req
        self._group = memo.group(self.group_id)
        self._ctx = self._group.context(req)
        self._merges = memo.merge_generation
        self.goal = ("opt-g", self.group_id, req.id, self._ctx.generation)
        #: Sequential gexpr-job queue (cost-bound pruning mode only).
        self._pending: list[GroupExpression] = []

    def step(self, scheduler):
        memo = self.engine.memo
        if self._merges != memo.merge_generation:
            # A merge may have moved this group's expressions and
            # contexts into another group: look both up again.
            self._group = memo.group(self.group_id)
            self._ctx = self._group.context(self.req)
            self._merges = memo.merge_generation
        group = self._group
        ctx = self._ctx
        if ctx.done:
            return None
        if self._step == 0:
            self._step = 1
            return [JobGroupImplement(self.engine, self.group_id)]
        if self._step == 1:
            self._step = 2
            self._add_enforcers(group)
            req = self.req
            gexprs = [
                gexpr
                for gexpr in group.physical_gexprs()
                if not (gexpr.op.is_enforcer and not gexpr.op.serves(req))
            ]
            if not self.engine.config.enable_cost_bound_pruning:
                if gexprs:
                    return [
                        JobGexprOptimize(self.engine, g, self.req)
                        for g in gexprs
                    ]
                ctx.finish()
                return None
            # Cheapest-looking expressions first (stable on ties): a good
            # incumbent early lets the expensive expressions behind it be
            # skipped outright at spawn time.  ``sorted`` takes each key
            # once, in list order.
            engine = self.engine
            self._pending = sorted(
                gexprs, key=lambda g: gexpr_cost_floor(engine, g)
            )
        # Pruning mode: optimize the expressions one at a time, so each
        # completed expression's cost becomes the incumbent bound for the
        # next one (Section 4.1, Fig. 5 — the bound tightens as the
        # search for this goal progresses).  An expression whose child
        # groups' cost floors already add up to the incumbent is skipped
        # without spawning its job at all.
        engine = self.engine
        while self._pending:
            nxt = self._pending.pop(0)
            cached = nxt.plan_for(self.req)
            if (
                cached is not None
                and cached.epoch == engine.epoch
                and cached.complete
            ):
                # Already costed exactly this epoch (typically by an
                # earlier generation of this goal): consume the
                # cached result without spawning a job.
                ctx.consider(nxt.id, cached.cost)
                continue
            threshold = ctx.best_cost
            if math.isfinite(threshold):
                floor = gexpr_cost_floor(engine, nxt)
                if floor >= threshold:
                    engine.pruned_alternatives += 1
                    if engine.tracer.enabled:
                        engine.tracer.record(
                            "search_pruned",
                            gexpr_id=nxt.id,
                            group=self.group_id,
                            req=repr(self.req),
                            alt=-1,
                            children_costed=0,
                            partial=floor,
                            threshold=threshold,
                        )
                    continue
            return [JobGexprOptimize(engine, nxt, self.req)]
        ctx.finish()
        return None

    def _add_enforcers(self, group) -> None:
        """Plug enforcer operators into the group for this request
        (Figure 6: Sort, Gather, GatherMerge, Redistribute in group 0/2).

        An enforcer referencing columns the group does not produce (e.g. a
        Sort on an outer column requested from the wrong join side) is
        never added; such requests simply remain unsatisfiable here.
        """
        memo = self.engine.memo
        req = self.req
        produced = {c.id for c in group.output_cols}
        order_ok = all(k.col_id in produced for k in req.order.keys)
        if not req.order.is_empty() and order_ok:
            memo.insert_enforcer(group.id, PhysicalSort(req.order))
        if isinstance(req.dist, SingletonDist):
            memo.insert_enforcer(group.id, PhysicalGather())
            if not req.order.is_empty() and order_ok:
                memo.insert_enforcer(group.id, PhysicalGatherMerge(req.order))
        elif isinstance(req.dist, HashedDist):
            if all(c in produced for c in req.dist.columns):
                cols = [
                    self.engine.column_factory.get(c) for c in req.dist.columns
                ]
                memo.insert_enforcer(group.id, PhysicalRedistribute(cols))
        elif isinstance(req.dist, ReplicatedDist):
            memo.insert_enforcer(group.id, PhysicalBroadcast())


class JobGexprOptimize(Job):
    """Opt(gexpr, req): cost the child-request alternatives of gexpr.

    With cost-bound pruning enabled (the default) the alternatives are
    walked child by child, carrying an upper bound that tightens as child
    costs accumulate (Section 4.1, Fig. 5): a partially-costed
    alternative whose children already cost as much as the incumbent best
    of the (group, req) context is abandoned without optimizing its remaining children, and
    the decision is recorded as a ``search_pruned`` trace event.  With
    pruning disabled every alternative's children are optimized up front
    and costed exhaustively.
    """

    kind = "Opt(gexpr,req)"

    #: Bounded-walk cursor: current alternative, its not-yet-costed
    #: child positions, and the accumulated partial cost.
    _alt_idx = 0
    _remaining: Optional[list[int]] = None
    _partial = 0.0
    _alternatives: Sequence[tuple[RequiredProps, ...]] = ()
    _survivors: Sequence[tuple[RequiredProps, ...]] = ()
    #: Best fully-costed alternative so far (bounded walk only; the
    #: exhaustive path batch-costs ``_survivors`` at the end).
    _best: Optional[PlanInfo] = None
    #: Tightest threshold at which this job abandoned an alternative
    #: (None = every alternative was fully costed).
    _abandoned_at: Optional[float] = None
    #: Lazily computed lower bound on this operator's local cost.
    _op_floor: Optional[float] = None

    def __init__(
        self, engine: "SearchEngine", gexpr: GroupExpression, req: RequiredProps
    ):
        super().__init__()
        self.engine = engine
        self.gexpr = gexpr
        self.req = req
        memo = engine.memo
        self._ctx = memo.group(gexpr.group_id).context(req)
        self._merges = memo.merge_generation
        self.goal = ("opt-x", gexpr.id, req.id, self._ctx.generation)

    def _context(self):
        """The (group, request) context this job reports to, looked up
        again only after a group merge (which can move the expression
        into another group)."""
        memo = self.engine.memo
        if self._merges != memo.merge_generation:
            self._ctx = memo.group(self.gexpr.group_id).context(self.req)
            self._merges = memo.merge_generation
        return self._ctx

    # ------------------------------------------------------------------
    def step(self, scheduler):
        engine = self.engine
        if self._step == 0:
            self._step = 1
            cached = self.gexpr.plan_for(self.req)
            if (
                cached is not None
                and cached.epoch == engine.epoch
                and cached.complete
            ):
                self._record(cached.cost)
                return None
            op = self.gexpr.op
            if op.is_enforcer and not op.serves(self.req):
                return None
            self._alternatives = op.child_request_alternatives(self.req)
            if not engine.config.enable_cost_bound_pruning:
                jobs = []
                for alt in self._alternatives:
                    for child_group, child_req in zip(
                        self.gexpr.child_groups, alt
                    ):
                        jobs.append(
                            JobGroupOptimize(engine, child_group, child_req)
                        )
                self._survivors = self._alternatives
                if jobs:
                    return jobs
                return self._combine()
        if not engine.config.enable_cost_bound_pruning:
            return self._combine()
        return self._bounded_walk()

    # ------------------------------------------------------------------
    def _bounded_walk(self):
        """Advance the child-by-child bounded costing; returns the next
        child job to wait on, or None once every alternative is resolved."""
        engine = self.engine
        memo = engine.memo
        group_of = memo.group
        gexpr = self.gexpr
        req = self.req
        child_groups = gexpr.child_groups
        alternatives = self._alternatives
        ctx = self._context()
        while self._alt_idx < len(alternatives):
            alt = alternatives[self._alt_idx]
            remaining = self._remaining
            if remaining is None:
                remaining = self._remaining = list(range(len(alt)))
            if not remaining:
                # Every child costed: cost the alternative immediately and
                # publish the result as the context's incumbent, so the
                # remaining alternatives (and sibling expressions of this
                # goal) prune against it right away.
                info = engine.cost_alternative(gexpr, req, alt)
                if info is not None:
                    engine.costed_alternatives += 1
                    if self._best is None or info.cost < self._best.cost:
                        self._best = info
                    ctx.consider(gexpr.id, info.cost)
                self._advance()
                continue
            threshold = ctx.best_cost
            # Cost floors count against the bound: the operator's own
            # minimum local cost plus, for each not-yet-costed child, the
            # child group's known global minimum (see group_cost_floor) —
            # so a hopeless alternative is dropped before its stricter
            # child contexts are ever requested.
            if self._op_floor is None and math.isfinite(threshold):
                self._op_floor = engine.op_floor(gexpr)
            rem_floor = (self._op_floor or 0.0) + sum(
                [group_cost_floor(memo, child_groups[pos]) for pos in remaining]
            )
            if self._partial + rem_floor >= threshold:
                self._abandon(threshold)
                continue
            # Consume already-resolved children first (in any order the
            # sum is the same): the partial cost rises as far as possible
            # before a *new* optimization request has to be issued, so an
            # abandoned alternative never creates the contexts it would
            # only have needed had it survived.
            for pos in remaining:
                child_ctx = group_of(child_groups[pos]).contexts.get(
                    alt[pos].id
                )
                if child_ctx is None or not child_ctx.done:
                    continue
                if child_ctx.has_plan():
                    self._partial += child_ctx.best_cost
                    remaining.remove(pos)
                else:
                    # Unsatisfiable: drop the alternative, exactly as
                    # exhaustive search would.
                    self._advance()
                break
            else:
                # No resolved child left: request the first unresolved
                # one.  Child searches run unbounded: their own
                # incumbents + cost floors prune them internally, and the
                # exact result is reusable by every later requester.
                pos = remaining[0]
                return [JobGroupOptimize(engine, child_groups[pos], alt[pos])]
        return self._combine()

    def _advance(self) -> None:
        self._alt_idx += 1
        self._remaining = None
        self._partial = 0.0

    def _abandon(self, threshold: float) -> None:
        """Drop the current alternative: it cannot beat the incumbent."""
        engine = self.engine
        if self._abandoned_at is None or threshold < self._abandoned_at:
            self._abandoned_at = threshold
        engine.pruned_alternatives += 1
        if engine.tracer.enabled:
            engine.tracer.record(
                "search_pruned",
                gexpr_id=self.gexpr.id,
                group=engine.memo.find(self.gexpr.group_id),
                req=repr(self.req),
                alt=self._alt_idx,
                children_costed=(
                    len(self._alternatives[self._alt_idx])
                    - len(self._remaining or ())
                ),
                partial=self._partial,
                threshold=threshold,
            )
        self._advance()

    # ------------------------------------------------------------------
    def _combine(self):
        """Record the best alternative (batch-costing the survivors when
        pruning is disabled; the bounded walk costs incrementally)."""
        engine = self.engine
        best: Optional[PlanInfo] = self._best
        for alt in self._survivors:
            info = engine.cost_alternative(self.gexpr, self.req, alt)
            if info is None:
                continue
            engine.costed_alternatives += 1
            if best is None or info.cost < best.cost:
                best = info
        if best is not None:
            # A best computed after abandoning alternatives is still exact
            # when it beats every abandonment threshold (each dropped
            # alternative's total was already at least that threshold).
            best.complete = (
                self._abandoned_at is None or best.cost <= self._abandoned_at
            )
            self.gexpr.record_plan(self.req, best, engine.memo.tracker)
            self._record(best.cost)
        return None

    def _record(self, cost: float) -> None:
        self._context().consider(self.gexpr.id, cost)
