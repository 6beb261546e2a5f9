"""The Memo data structure.

"The Memo structure consists of a set of containers called groups, where
each group contains logically equivalent expressions ... Each group
expression is an operator that has other groups as its children.  This
recursive structure of the Memo allows compact encoding of a huge space of
possible plans." (Section 3)

This implementation includes the built-in duplicate detection mechanism
based on expression topology (Section 4.1, step 1) and group merging for
the case where a transformation proves two existing groups equivalent.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.errors import OptimizerError
from repro.gpos.memory import (
    CONTEXT_BYTES,
    GEXPR_BYTES,
    GROUP_BYTES,
    PLAN_BYTES,
    MemoryTracker,
)
from repro.interning import intern_key
from repro.memo.context import OptimizationContext, PlanInfo, StatsObject
from repro.ops.expression import Expression, Operator
from repro.ops.scalar import ColRef
from repro.props.required import RequiredProps
from repro.trace import NULL_TRACER


class GroupRef(Operator):
    """Pseudo-operator letting transformation rules reference an existing
    Memo group as a leaf of the expression they produce."""

    name = "GroupRef"
    is_logical = False
    is_physical = False
    arity = 0

    def __init__(self, group_id: int, output_cols: list[ColRef]):
        self.group_id = group_id
        self.output_cols = output_cols

    def key(self) -> tuple:
        return ("GroupRef", self.group_id)

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.output_cols)

    def __repr__(self) -> str:
        return f"GroupRef({self.group_id})"


def group_ref(memo: "Memo", group_id: int) -> Expression:
    """Convenience: an Expression leaf standing for an existing group."""
    group = memo.group(group_id)
    return Expression(GroupRef(group.id, group.output_cols))


class GroupExpression:
    """An operator whose children are Memo groups."""

    def __init__(self, gexpr_id: int, op: Operator, child_groups: tuple[int, ...]):
        self.id = gexpr_id
        self.op = op
        self.child_groups = child_groups
        self.group_id: int = -1
        #: Rule names already applied to this expression (no re-firing).
        self.applied_rules: set[str] = set()
        #: Local hash table: request id -> PlanInfo (Figure 6).
        self.plans: dict[Hashable, PlanInfo] = {}
        self.explored = False
        self.implemented = False
        #: Cached fingerprint + the Memo merge generation it was computed
        #: under; merges re-root groups, so the cache is invalidated by
        #: generation (bumped in :meth:`Memo.merge`).
        self._fingerprint: Optional[tuple] = None
        self._fingerprint_gen = -1
        #: Pure-function memo (see SearchEngine): delivered properties by
        #: the children's delivered ids.  It depends only on the immutable
        #: operator and its explicit inputs, so it never needs merge
        #: invalidation.
        self.delivered_cache: dict = {}

    def fingerprint(self, memo: "Memo") -> tuple:
        cached = self._fingerprint
        if cached is not None and self._fingerprint_gen == memo.merge_generation:
            return cached
        fp = intern_key(
            (self.op.key(), tuple(memo.find(g) for g in self.child_groups))
        )
        self._fingerprint = fp
        self._fingerprint_gen = memo.merge_generation
        return fp

    def plan_for(self, req: RequiredProps) -> Optional[PlanInfo]:
        return self.plans.get(req.id)

    def record_plan(
        self, req: RequiredProps, info: PlanInfo, tracker: MemoryTracker
    ) -> None:
        existing = self.plans.get(req.id)
        if existing is None:
            self.plans[req.id] = info
            tracker.charge("plans", PLAN_BYTES)
        elif info.cost <= existing.cost:
            self.plans[req.id] = info
        else:
            # The recomputation confirmed the old (cheaper) entry is
            # still the best this expression can do: mark it fresh.
            existing.epoch = info.epoch

    def __repr__(self) -> str:
        kids = ",".join(map(str, self.child_groups))
        return f"{self.id}: {self.op!r} [{kids}]"


class Group:
    """A container of logically equivalent group expressions."""

    def __init__(
        self,
        group_id: int,
        output_cols: list[ColRef],
        tracer=None,
        tracker: Optional[MemoryTracker] = None,
    ):
        self.id = group_id
        self.gexprs: list[GroupExpression] = []
        self.output_cols = output_cols
        self.stats: Optional[StatsObject] = None
        #: Group hash table: request id -> OptimizationContext (Figure 6).
        self.contexts: dict[Hashable, OptimizationContext] = {}
        self.explored = False
        self.implemented = False
        self.tracer = tracer or NULL_TRACER
        #: The memo's accountant; charged for each context created here.
        self.tracker = tracker or MemoryTracker()
        #: Enforcers already added, by operator fingerprint, to avoid
        #: duplicates.
        self._enforcers: dict[tuple, GroupExpression] = {}

    def context(self, req: RequiredProps) -> OptimizationContext:
        ctx = self.contexts.get(req.id)
        if ctx is None:
            ctx = OptimizationContext(req=req)
            self.contexts[req.id] = ctx
            self.tracker.charge("contexts", CONTEXT_BYTES)
            if self.tracer.enabled:
                self.tracer.record(
                    "property_request", group=self.id, req=repr(req)
                )
        return ctx

    def existing_context(self, req: RequiredProps) -> Optional[OptimizationContext]:
        return self.contexts.get(req.id)

    def logical_gexprs(self) -> list[GroupExpression]:
        return [g for g in self.gexprs if g.op.is_logical]

    def physical_gexprs(self) -> list[GroupExpression]:
        return [g for g in self.gexprs if g.op.is_physical]

    def __repr__(self) -> str:
        return f"Group {self.id} ({len(self.gexprs)} exprs)"


class Memo:
    """Groups + global duplicate detection + union-find group merging."""

    def __init__(self, tracer=None) -> None:
        self.groups: list[Group] = []
        self._parent: list[int] = []  # union-find over group ids
        self._dedup: dict[tuple, GroupExpression] = {}
        self._gexpr_by_id: dict[int, GroupExpression] = {}
        self._next_gexpr_id = 0
        self.root: Optional[int] = None
        self.tracer = tracer or NULL_TRACER
        #: Charged where the memo allocates (repro.gpos.memory); its
        #: total is the memo's footprint.
        self.tracker = MemoryTracker()
        #: Bumped on every group merge; generation-stamped caches
        #: (fingerprints, cost floors) check it before trusting a hit.
        self.merge_generation = 0

    def gexpr(self, gexpr_id: int) -> GroupExpression:
        return self._gexpr_by_id[gexpr_id]

    # ------------------------------------------------------------------
    # Union-find
    # ------------------------------------------------------------------
    def find(self, group_id: int) -> int:
        root = group_id
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[group_id] != root:
            self._parent[group_id], group_id = root, self._parent[group_id]
        return root

    def group(self, group_id: int) -> Group:
        # Almost every id handed in is already a representative.
        if self._parent[group_id] == group_id:
            return self.groups[group_id]
        return self.groups[self.find(group_id)]

    def live_groups(self) -> list[Group]:
        """Groups that are their own union-find representative."""
        return [g for i, g in enumerate(self.groups) if self.find(i) == i]

    # ------------------------------------------------------------------
    # Copy-in
    # ------------------------------------------------------------------
    def insert(
        self, expr: Expression, target_group: Optional[int] = None
    ) -> int:
        """Copy an expression tree into the Memo; returns the root group id.

        Children are inserted (or found) first; the root lands in
        ``target_group`` when given, merging groups if duplicate detection
        finds the same expression in a different group.
        """
        if isinstance(expr.op, GroupRef):
            return self.find(expr.op.group_id)
        child_ids = tuple(self.insert(child) for child in expr.children)
        gexpr, group_id = self._insert_gexpr(expr, child_ids, target_group)
        return group_id

    def _insert_gexpr(
        self,
        expr: Expression,
        child_ids: tuple[int, ...],
        target_group: Optional[int],
    ) -> tuple[GroupExpression, int]:
        resolved = tuple(self.find(c) for c in child_ids)
        fingerprint = intern_key((expr.op.key(), resolved))
        existing = self._dedup.get(fingerprint)
        if existing is not None:
            home = self.find(existing.group_id)
            if target_group is not None and self.find(target_group) != home:
                self.merge(target_group, home)
            return existing, self.find(existing.group_id)
        if target_group is None:
            group = self._new_group(expr)
        else:
            group = self.groups[self.find(target_group)]
        gexpr = GroupExpression(self._next_gexpr_id, expr.op, resolved)
        self._next_gexpr_id += 1
        gexpr.group_id = group.id
        group.gexprs.append(gexpr)
        self._dedup[fingerprint] = gexpr
        self._gexpr_by_id[gexpr.id] = gexpr
        self.tracker.charge("gexprs", GEXPR_BYTES)
        if self.tracer.enabled:
            self.tracer.record(
                "gexpr_added",
                gexpr_id=gexpr.id, group=group.id, op=expr.op.name,
            )
        # New logical expressions invalidate exploration fixpoints.
        if expr.op.is_logical:
            group.explored = False
            group.implemented = False
        return gexpr, group.id

    def insert_enforcer(self, group_id: int, op: Operator) -> GroupExpression:
        """Add an enforcer gexpr whose only child is its own group.

        Returns the new gexpr, or the identical enforcer already there.
        """
        group = self.group(group_id)
        key = op.key()
        existing = group._enforcers.get(key)
        if existing is not None:
            return existing
        gexpr = group._enforcers[key] = GroupExpression(
            self._next_gexpr_id, op, (group.id,)
        )
        self._next_gexpr_id += 1
        gexpr.group_id = group.id
        gexpr.explored = True
        gexpr.implemented = True
        group.gexprs.append(gexpr)
        self._gexpr_by_id[gexpr.id] = gexpr
        self.tracker.charge("gexprs", GEXPR_BYTES)
        if self.tracer.enabled:
            self.tracer.record(
                "gexpr_added",
                gexpr_id=gexpr.id, group=group.id, op=op.name, enforcer=True,
            )
            self.tracer.record(
                "motion_enforced", group=group.id, op=op.name
            )
        return gexpr

    def _new_group(self, expr: Expression) -> Group:
        group = Group(
            len(self.groups), expr.output_columns(), self.tracer, self.tracker
        )
        self.groups.append(group)
        self._parent.append(group.id)
        self.tracker.charge("groups", GROUP_BYTES)
        if self.tracer.enabled:
            self.tracer.record("group_created", group=group.id)
        return group

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(self, a: int, b: int) -> int:
        """Merge two groups proven logically equivalent; returns the winner."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        self.merge_generation += 1
        winner, loser = (ra, rb) if ra < rb else (rb, ra)
        self._parent[loser] = winner
        wgroup, lgroup = self.groups[winner], self.groups[loser]
        for gexpr in lgroup.gexprs:
            gexpr.group_id = winner
            wgroup.gexprs.append(gexpr)
        for key, gexpr in lgroup._enforcers.items():
            wgroup._enforcers.setdefault(key, gexpr)
        # Carry optimization state across the merge: the loser's contexts
        # hold real, still-achievable incumbent costs (its expressions now
        # live in the winner), so they keep seeding branch-and-bound
        # pruning instead of being forgotten.
        for key, lctx in lgroup.contexts.items():
            wctx = wgroup.contexts.get(key)
            if wctx is None:
                lctx.reset_for_redo()
                wgroup.contexts[key] = lctx
            else:
                wctx.request_bound(lctx.req_bound)
                if lctx.best_gexpr_id is not None and (
                    lctx.best_cost < wctx.best_cost
                ):
                    wctx.best_cost = lctx.best_cost
                    wctx.best_gexpr_id = lctx.best_gexpr_id
        lgroup.contexts = {}
        lgroup.gexprs = []
        wgroup.explored = False
        wgroup.implemented = False
        if wgroup.stats is None:
            wgroup.stats = lgroup.stats
        self._rehash()
        if self.root is not None:
            self.root = self.find(self.root)
        return winner

    def _rehash(self) -> None:
        """Rebuild duplicate detection after a merge; drop duplicates."""
        self._dedup = {}
        for group in self.live_groups():
            kept: list[GroupExpression] = []
            for gexpr in group.gexprs:
                if gexpr.op.is_enforcer:
                    kept.append(gexpr)
                    continue
                gexpr.child_groups = tuple(
                    self.find(c) for c in gexpr.child_groups
                )
                # fingerprint() recomputes and re-caches here: the merge
                # bumped merge_generation, invalidating the old entry.
                fingerprint = gexpr.fingerprint(self)
                survivor = self._dedup.get(fingerprint)
                if survivor is None:
                    self._dedup[fingerprint] = gexpr
                    kept.append(gexpr)
                else:
                    # Keep the survivor's accumulated state richer.
                    survivor.applied_rules |= gexpr.applied_rules
                    for key, info in gexpr.plans.items():
                        kept_info = survivor.plans.get(key)
                        if kept_info is None or info.cost < kept_info.cost:
                            survivor.plans[key] = info
            group.gexprs = kept

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def root_group(self) -> Group:
        if self.root is None:
            raise OptimizerError("memo has no root group")
        return self.groups[self.find(self.root)]

    def set_root(self, group_id: int) -> None:
        self.root = self.find(group_id)

    def num_groups(self) -> int:
        return len(self.live_groups())

    def num_gexprs(self) -> int:
        return sum(len(g.gexprs) for g in self.live_groups())

    def num_groups_created(self) -> int:
        """All groups ever created, including ones merged away since."""
        return len(self.groups)

    def num_gexprs_created(self) -> int:
        """All group expressions ever created, including dedup victims."""
        return self._next_gexpr_id

    def all_gexprs(self) -> Iterable[GroupExpression]:
        for group in self.live_groups():
            yield from group.gexprs

    def dump(self) -> str:
        """Human-readable Memo listing, like Figure 6."""
        lines = []
        root = self.find(self.root) if self.root is not None else None
        for group in self.live_groups():
            tag = " (root)" if group.id == root else ""
            lines.append(f"GROUP {group.id}{tag}:")
            for gexpr in group.gexprs:
                lines.append(f"  {gexpr!r}")
            for ctx in group.contexts.values():
                if ctx.has_plan():
                    lines.append(
                        f"  req {ctx.req!r} -> best gexpr {ctx.best_gexpr_id} "
                        f"cost {ctx.best_cost:.1f}"
                    )
        return "\n".join(lines)
