"""Physical operators.

Each physical operator answers the two questions the optimization step of
Section 4.1 asks of it:

- ``child_request_alternatives(req)``: given an incoming optimization
  request, which combinations of child requests could produce a valid plan?
  (Figure 7a: Inner Hash Join requests ``Hashed(T1.a)`` from group 1 and
  ``Hashed(T2.b)`` from group 2.)  The answer is a tuple the caller must
  not change: it depends only on the operator and on the part of the
  request the operator names, so each operator builds it once and hands
  the same tuple to every later request (see :class:`PhysicalOp`).
- ``derive_delivered(child_delivered)``: given what the chosen child plans
  actually deliver, what does this operator deliver — or ``None`` if the
  combination is invalid (Figure 7b).

Enforcer operators (Sort, Gather, GatherMerge, Redistribute, Broadcast) are
flagged ``is_enforcer`` and are injected into Memo groups during
optimization, with the group itself as their only child under a strictly
weaker request (Figure 6, expressions 6-8 of group 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from repro.catalog.schema import Index, Table
from repro.ops.expression import Operator
from repro.ops.logical import AggStage, ApplyKind, JoinKind
from repro.ops.scalar import AggFunc, ColRef, ScalarExpr, WindowFunc
from repro.props.distribution import (
    ANY_DIST,
    DistributionSpec,
    HashedDist,
    RANDOM,
    REPLICATED,
    ReplicatedDist,
    SINGLETON,
    SingletonDist,
)
from repro.props.order import ANY_ORDER, OrderSpec, SortKey
from repro.props.required import ANY_PROPS, DerivedProps, RequiredProps

#: Alternatives of a leaf: one combination, of no child requests.
_LEAF = ((),)
#: Alternatives of a motion that takes its child as it comes.
_ANY_CHILD = ((ANY_PROPS,),)


@dataclass(frozen=True)
class DPEHint:
    """Dynamic partition elimination hint attached to a fact-table scan.

    ``selector_col`` is the dimension-side join column whose runtime values
    select fact partitions; ``fraction`` is the estimated fraction of
    partitions that survive (drives the cost model).  See Section 7.2.2,
    Partition Elimination, and paper reference [2].
    """

    selector_col_id: int
    fraction: float


class PhysicalOp(Operator):
    """Base class for physical operators.

    The search asks ``child_request_alternatives`` once per (group
    expression, request) it visits, and most operators' answers do not
    depend on the request at all, or only on its order.  Those operators
    build the answer once and keep it in ``_alternatives`` (a tuple, or
    for the nested-loops joins a dict keyed by the requested order):
    derived state that :meth:`Operator.__getstate__` leaves out of the
    pickle, like the interned key.  Operators whose answer follows the
    whole request (Filter, Project, Sort, ...) build it per call.
    """

    is_physical = True

    def child_request_alternatives(
        self, req: RequiredProps
    ) -> tuple[tuple[RequiredProps, ...], ...]:
        raise NotImplementedError

    def derive_delivered(
        self, child_delivered: Sequence[DerivedProps]
    ) -> Optional[DerivedProps]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------

class ScanBase(PhysicalOp):
    """Shared behaviour of leaf scans."""

    arity = 0

    def __init__(self, table: Table, columns: Sequence[ColRef], alias: str):
        self.table = table
        self.columns = tuple(columns)
        self.alias = alias

    def table_dist(self) -> DistributionSpec:
        """Distribution delivered by scanning the table in place."""
        from repro.catalog.schema import DistributionPolicy

        if self.table.distribution is DistributionPolicy.REPLICATED:
            return REPLICATED
        if self.table.distribution is DistributionPolicy.RANDOM:
            return RANDOM
        ids = []
        for name in self.table.distribution_columns:
            idx = self.table.column_index(name)
            ids.append(self.columns[idx].id)
        return HashedDist(tuple(ids))

    def child_request_alternatives(self, req):
        return _LEAF


class PhysicalTableScan(ScanBase):
    """Sequential scan of (selected partitions of) a table."""

    name = "TableScan"

    def __init__(
        self,
        table: Table,
        columns: Sequence[ColRef],
        alias: str,
        partitions: Optional[tuple[int, ...]] = None,
    ):
        super().__init__(table, columns, alias)
        self.partitions = partitions

    def key(self) -> tuple:
        return (
            "TableScan",
            self.table.name,
            tuple(c.id for c in self.columns),
            self.partitions,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.columns)

    def derive_delivered(self, child_delivered):
        return DerivedProps(self.table_dist(), ANY_ORDER)

    def __repr__(self) -> str:
        parts = "" if self.partitions is None else f" parts={list(self.partitions)}"
        return f"Scan({self.alias}{parts})"


class PhysicalDynamicTableScan(ScanBase):
    """Partitioned-table scan whose partitions are selected at runtime.

    The executor resolves ``dpe.selector_col_id`` against values observed on
    the build side of the enclosing hash join; if no values were published,
    it falls back to scanning every (statically surviving) partition.
    """

    name = "DynamicScan"

    def __init__(
        self,
        table: Table,
        columns: Sequence[ColRef],
        alias: str,
        partitions: Optional[tuple[int, ...]],
        dpe: DPEHint,
    ):
        super().__init__(table, columns, alias)
        self.partitions = partitions
        self.dpe = dpe

    def key(self) -> tuple:
        return (
            "DynamicScan",
            self.table.name,
            tuple(c.id for c in self.columns),
            self.partitions,
            self.dpe.selector_col_id,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.columns)

    def derive_delivered(self, child_delivered):
        return DerivedProps(self.table_dist(), ANY_ORDER)

    def __repr__(self) -> str:
        return (
            f"DynamicScan({self.alias} sel=#{self.dpe.selector_col_id} "
            f"~{self.dpe.fraction:.2f})"
        )


class PhysicalIndexScan(ScanBase):
    """Ordered scan through a single-column index with optional bounds.

    Delivers rows sorted by the indexed column (Section 3: "an IndexScan
    plan delivers sorted data").
    """

    name = "IndexScan"

    def __init__(
        self,
        table: Table,
        columns: Sequence[ColRef],
        alias: str,
        index: Index,
        index_col: ColRef,
        lo=None,
        hi=None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
        residual: Optional[ScalarExpr] = None,
        fetch_rows_estimate: Optional[float] = None,
    ):
        super().__init__(table, columns, alias)
        self.index = index
        self.index_col = index_col
        self.lo = lo
        self.hi = hi
        self.lo_inclusive = lo_inclusive
        self.hi_inclusive = hi_inclusive
        #: Predicate applied on fetched rows (not covered by the bounds).
        self.residual = residual
        #: Rows fetched through the index before the residual filter,
        #: estimated at rule-application time for the cost model.
        self.fetch_rows_estimate = fetch_rows_estimate

    def key(self) -> tuple:
        return (
            "IndexScan",
            self.table.name,
            self.index.name,
            tuple(c.id for c in self.columns),
            self.lo,
            self.hi,
            self.lo_inclusive,
            self.hi_inclusive,
            self.residual.key() if self.residual is not None else None,
        )

    def scalar_exprs(self):
        return [self.residual] if self.residual is not None else []

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.columns)

    def derive_delivered(self, child_delivered):
        return DerivedProps(
            self.table_dist(), OrderSpec((SortKey(self.index_col.id),))
        )

    def __repr__(self) -> str:
        return f"IndexScan({self.alias}.{self.index.column} [{self.lo}, {self.hi}])"


# ----------------------------------------------------------------------
# Row-at-a-time operators
# ----------------------------------------------------------------------

class PhysicalFilter(PhysicalOp):
    """Filter rows; preserves both distribution and order."""

    name = "Filter"
    arity = 1

    def __init__(self, predicate: ScalarExpr):
        self.predicate = predicate

    def key(self) -> tuple:
        return ("Filter", self.predicate.key())

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def scalar_exprs(self):
        return [self.predicate]

    def child_request_alternatives(self, req):
        return ((req,),)

    def derive_delivered(self, child_delivered):
        return child_delivered[0]

    def __repr__(self) -> str:
        return f"Filter({self.predicate!r})"


class PhysicalProject(PhysicalOp):
    """Compute scalar projections; preserves dist/order on pass-through
    columns.  Requests referencing computed columns cannot be pushed down
    and are replaced by Any (an enforcer above will bridge the gap)."""

    name = "Project"
    arity = 1

    def __init__(self, projections: Sequence[tuple[ScalarExpr, ColRef]]):
        self.projections = tuple(projections)

    def key(self) -> tuple:
        return ("PProject", tuple((e.key(), c.id) for e, c in self.projections))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0]) + [c for _e, c in self.projections]

    def scalar_exprs(self):
        return [e for e, _c in self.projections]

    def _computed_ids(self) -> frozenset[int]:
        return frozenset(c.id for _e, c in self.projections)

    def child_request_alternatives(self, req):
        computed = self._computed_ids()
        dist = req.dist
        if isinstance(dist, HashedDist) and any(
            c in computed for c in dist.columns
        ):
            dist = ANY_DIST
        order = req.order
        if any(k.col_id in computed for k in order.keys):
            order = ANY_ORDER
        return ((RequiredProps(dist, order),),)

    def derive_delivered(self, child_delivered):
        return child_delivered[0]

    def __repr__(self) -> str:
        cols = ", ".join(f"{c}={e!r}" for e, c in self.projections)
        return f"Project({cols})"


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------

def _join_delivered_dist(
    kind: JoinKind,
    outer: DistributionSpec,
    inner: DistributionSpec,
    pair_map: dict[int, int],
) -> Optional[DistributionSpec]:
    """Delivered distribution of a distributed join, or None if invalid.

    ``pair_map`` maps outer equi-join column ids to inner ones.
    """
    if isinstance(inner, ReplicatedDist):
        if isinstance(outer, SingletonDist):
            return SINGLETON
        return outer
    if isinstance(outer, SingletonDist) and isinstance(inner, SingletonDist):
        return SINGLETON
    if isinstance(outer, ReplicatedDist):
        if isinstance(inner, ReplicatedDist):
            return REPLICATED
        # Full outer copy on every node: valid for INNER joins only.
        if kind is JoinKind.INNER and inner.is_partitioned():
            return inner
        return None
    if isinstance(outer, HashedDist) and isinstance(inner, HashedDist):
        if not outer.columns or len(outer.columns) != len(inner.columns):
            return None
        partners = tuple(pair_map.get(c) for c in outer.columns)
        if partners == inner.columns:
            return outer  # co-located
        return None
    return None


class PhysicalHashJoin(PhysicalOp):
    """Hash join: build on the inner (right) child, probe with the outer.

    ``selector_col_id`` links this join to DynamicScans in its probe
    subtree for dynamic partition elimination.
    """

    name = "HashJoin"
    arity = 2

    def __init__(
        self,
        kind: JoinKind,
        left_keys: Sequence[ColRef],
        right_keys: Sequence[ColRef],
        residual: Optional[ScalarExpr] = None,
        selector_col_id: Optional[int] = None,
    ):
        self.kind = kind
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.selector_col_id = selector_col_id

    def key(self) -> tuple:
        return (
            "HashJoin",
            self.kind.value,
            tuple(c.id for c in self.left_keys),
            tuple(c.id for c in self.right_keys),
            self.residual.key() if self.residual is not None else None,
            self.selector_col_id,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind.output_is_left_only():
            return list(child_outputs[0])
        return list(child_outputs[0]) + list(child_outputs[1])

    def scalar_exprs(self):
        return [self.residual] if self.residual is not None else []

    def _pair_map(self) -> dict[int, int]:
        return {
            l.id: r.id for l, r in zip(self.left_keys, self.right_keys)
        }

    def child_request_alternatives(self, req):
        if not req.order.is_empty():
            return ()  # hash joins never deliver an order
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        alts: list[tuple[RequiredProps, ...]] = []
        # Co-located: align distributions on the equi-join columns.
        alts.append(
            (
                RequiredProps(HashedDist.on(self.left_keys)),
                RequiredProps(HashedDist.on(self.right_keys)),
            )
        )
        if len(self.left_keys) > 1:
            # Cheaper single-column alignment can avoid a redistribution.
            alts.append(
                (
                    RequiredProps(HashedDist.on(self.left_keys[:1])),
                    RequiredProps(HashedDist.on(self.right_keys[:1])),
                )
            )
        # Broadcast inner.
        alts.append((RequiredProps(ANY_DIST), RequiredProps(REPLICATED)))
        # Gather both to the master.
        alts.append((RequiredProps(SINGLETON), RequiredProps(SINGLETON)))
        return tuple(alts)

    def derive_delivered(self, child_delivered):
        dist = _join_delivered_dist(
            self.kind,
            child_delivered[0].dist,
            child_delivered[1].dist,
            self._pair_map(),
        )
        if dist is None:
            return None
        return DerivedProps(dist, ANY_ORDER)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        extra = f" +{self.residual!r}" if self.residual is not None else ""
        dpe = f" dpe=#{self.selector_col_id}" if self.selector_col_id else ""
        return f"{self.kind.value.capitalize()}HashJoin({pairs}{extra}{dpe})"


class PhysicalMergeJoin(PhysicalOp):
    """Sort-merge join over inputs ordered on the equi-join keys.

    Requires both children sorted ascending on their key columns (the
    Sort enforcers — or an IndexScan's delivered order — provide it) and
    preserves the outer ordering, which lets it serve ordered
    optimization requests no hash join can.
    """

    name = "MergeJoin"
    arity = 2

    def __init__(
        self,
        kind: JoinKind,
        left_keys: Sequence[ColRef],
        right_keys: Sequence[ColRef],
        residual: Optional[ScalarExpr] = None,
    ):
        self.kind = kind
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        #: What each child must deliver: ascending on its join keys.
        self.left_order = OrderSpec(tuple(SortKey(c.id) for c in left_keys))
        self.right_order = OrderSpec(tuple(SortKey(c.id) for c in right_keys))

    def key(self) -> tuple:
        return (
            "MergeJoin",
            self.kind.value,
            tuple(c.id for c in self.left_keys),
            tuple(c.id for c in self.right_keys),
            self.residual.key() if self.residual is not None else None,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind.output_is_left_only():
            return list(child_outputs[0])
        return list(child_outputs[0]) + list(child_outputs[1])

    def scalar_exprs(self):
        return [self.residual] if self.residual is not None else []

    def _pair_map(self) -> dict[int, int]:
        return {l.id: r.id for l, r in zip(self.left_keys, self.right_keys)}

    def child_request_alternatives(self, req):
        if not req.order.is_empty() and not self.left_order.satisfies(
            req.order
        ):
            return ()
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        left_order, right_order = self.left_order, self.right_order
        return (
            (
                RequiredProps(HashedDist.on(self.left_keys), left_order),
                RequiredProps(HashedDist.on(self.right_keys), right_order),
            ),
            (
                RequiredProps(ANY_DIST, left_order),
                RequiredProps(REPLICATED, right_order),
            ),
            (
                RequiredProps(SINGLETON, left_order),
                RequiredProps(SINGLETON, right_order),
            ),
        )

    def derive_delivered(self, child_delivered):
        if not child_delivered[0].order.satisfies(self.left_order):
            return None
        if not child_delivered[1].order.satisfies(self.right_order):
            return None
        dist = _join_delivered_dist(
            self.kind,
            child_delivered[0].dist,
            child_delivered[1].dist,
            self._pair_map(),
        )
        if dist is None:
            return None
        return DerivedProps(dist, child_delivered[0].order)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        extra = f" +{self.residual!r}" if self.residual is not None else ""
        return f"{self.kind.value.capitalize()}MergeJoin({pairs}{extra})"


def _outer_order_alternatives(
    op: PhysicalOp, order: OrderSpec
) -> tuple[tuple[RequiredProps, ...], ...]:
    """A nested-loops join's alternatives: the outer child keeps the
    requested order, the inner is replicated or both are gathered.  Built
    once per (operator, order): the search asks a join for one order
    under several distributions."""
    by_order = op.__dict__.get("_alternatives")
    if by_order is None:
        by_order = op._alternatives = {}
    key = order.key()
    alts = by_order.get(key)
    if alts is None:
        alts = by_order[key] = (
            (RequiredProps(ANY_DIST, order), RequiredProps(REPLICATED)),
            (RequiredProps(SINGLETON, order), RequiredProps(SINGLETON)),
        )
    return alts


class PhysicalNLJoin(PhysicalOp):
    """Nested-loops join; preserves the outer child's order."""

    name = "NLJoin"
    arity = 2

    def __init__(self, kind: JoinKind, condition: Optional[ScalarExpr]):
        self.kind = kind
        self.condition = condition

    def key(self) -> tuple:
        return (
            "NLJoin",
            self.kind.value,
            self.condition.key() if self.condition is not None else None,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind.output_is_left_only():
            return list(child_outputs[0])
        return list(child_outputs[0]) + list(child_outputs[1])

    def scalar_exprs(self):
        return [self.condition] if self.condition is not None else []

    def child_request_alternatives(self, req):
        return _outer_order_alternatives(self, req.order)

    def derive_delivered(self, child_delivered):
        dist = _join_delivered_dist(
            self.kind, child_delivered[0].dist, child_delivered[1].dist, {}
        )
        if dist is None:
            return None
        return DerivedProps(dist, child_delivered[0].order)

    def __repr__(self) -> str:
        return f"{self.kind.value.capitalize()}NLJoin({self.condition!r})"


class PhysicalCorrelatedNLJoin(PhysicalOp):
    """Correlated nested loops: re-evaluates the inner plan per outer row.

    This is the physical Apply — the expensive fallback Orca avoids via
    decorrelation and the shape the legacy Planner always produces for
    correlated subqueries (Section 7.2.2).
    """

    name = "CorrelatedNLJoin"
    arity = 2

    def __init__(
        self,
        kind: ApplyKind,
        outer_refs: frozenset[int],
        inner_cols: Sequence[ColRef],
    ):
        self.kind = kind
        self.outer_refs = outer_refs
        self.inner_cols = tuple(inner_cols)

    def key(self) -> tuple:
        return (
            "CorrNLJoin",
            self.kind.value,
            tuple(sorted(self.outer_refs)),
            tuple(c.id for c in self.inner_cols),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind is ApplyKind.SCALAR:
            return list(child_outputs[0]) + list(self.inner_cols)
        return list(child_outputs[0])

    def child_request_alternatives(self, req):
        # The inner plan must see the full inner data on whichever node the
        # outer row lives: replicate it, or gather both to the master.
        return _outer_order_alternatives(self, req.order)

    def derive_delivered(self, child_delivered):
        outer = child_delivered[0]
        inner = child_delivered[1].dist
        if isinstance(inner, ReplicatedDist) or (
            isinstance(outer.dist, SingletonDist)
            and isinstance(inner, SingletonDist)
        ):
            return DerivedProps(outer.dist, outer.order)
        return None

    def __repr__(self) -> str:
        return f"Correlated{self.kind.value.capitalize()}NLJoin"


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

class AggBase(PhysicalOp):
    """Shared logic of hash and stream aggregation."""

    arity = 1

    def __init__(
        self,
        group_cols: Sequence[ColRef],
        aggs: Sequence[tuple[AggFunc, ColRef]],
        stage: AggStage,
    ):
        self.group_cols = tuple(group_cols)
        self.aggs = tuple(aggs)
        self.stage = stage

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.group_cols) + [c for _a, c in self.aggs]

    def scalar_exprs(self):
        return [a for a, _c in self.aggs]

    def _child_dist_alternatives(self) -> list[DistributionSpec]:
        if self.stage is AggStage.PARTIAL:
            return [ANY_DIST]
        if not self.group_cols:
            return [SINGLETON]
        return [HashedDist.on(self.group_cols), SINGLETON]

    def _valid_child_dist(self, dist: DistributionSpec) -> bool:
        if self.stage is AggStage.PARTIAL:
            return True
        if isinstance(dist, (SingletonDist, ReplicatedDist)):
            return True
        if not self.group_cols:
            return False
        if isinstance(dist, HashedDist):
            return set(dist.columns) <= {c.id for c in self.group_cols}
        return False


class PhysicalHashAgg(AggBase):
    """Hash aggregation (grouped or scalar); destroys order."""

    name = "HashAgg"

    def key(self) -> tuple:
        return (
            "HashAgg",
            self.stage.value,
            tuple(c.id for c in self.group_cols),
            tuple((a.key(), c.id) for a, c in self.aggs),
        )

    def child_request_alternatives(self, req):
        if not req.order.is_empty():
            return ()
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        return tuple(
            (RequiredProps(d),) for d in self._child_dist_alternatives()
        )

    def derive_delivered(self, child_delivered):
        if not self._valid_child_dist(child_delivered[0].dist):
            return None
        return DerivedProps(child_delivered[0].dist, ANY_ORDER)

    def __repr__(self) -> str:
        stage = "" if self.stage is AggStage.GLOBAL else f":{self.stage.value}"
        return f"HashAgg{stage}([{', '.join(map(str, self.group_cols))}])"


class PhysicalStreamAgg(AggBase):
    """Sort-based aggregation; requires and preserves group-column order."""

    name = "StreamAgg"

    def __init__(
        self,
        group_cols: Sequence[ColRef],
        aggs: Sequence[tuple[AggFunc, ColRef]],
        stage: AggStage,
    ):
        super().__init__(group_cols, aggs, stage)
        #: What the child must deliver, and what this delivers.
        self.group_order = OrderSpec(
            tuple(SortKey(c.id) for c in self.group_cols)
        )

    def key(self) -> tuple:
        return (
            "StreamAgg",
            self.stage.value,
            tuple(c.id for c in self.group_cols),
            tuple((a.key(), c.id) for a, c in self.aggs),
        )

    def child_request_alternatives(self, req):
        if not self.group_cols:
            return ()
        if not req.order.is_empty() and not self.group_order.satisfies(
            req.order
        ):
            return ()
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        return tuple(
            (RequiredProps(d, self.group_order),)
            for d in self._child_dist_alternatives()
        )

    def derive_delivered(self, child_delivered):
        if not self._valid_child_dist(child_delivered[0].dist):
            return None
        if not child_delivered[0].order.satisfies(self.group_order):
            return None
        return DerivedProps(child_delivered[0].dist, self.group_order)

    def __repr__(self) -> str:
        stage = "" if self.stage is AggStage.GLOBAL else f":{self.stage.value}"
        return f"StreamAgg{stage}([{', '.join(map(str, self.group_cols))}])"


# ----------------------------------------------------------------------
# Window / Limit / Append
# ----------------------------------------------------------------------

class PhysicalWindow(PhysicalOp):
    """Window computation over partition+order sorted input."""

    name = "Window"
    arity = 1

    def __init__(self, funcs: Sequence[tuple[WindowFunc, ColRef]]):
        self.funcs = tuple(funcs)

    def key(self) -> tuple:
        return ("PWindow", tuple((f.key(), c.id) for f, c in self.funcs))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0]) + [c for _f, c in self.funcs]

    def scalar_exprs(self):
        return [f for f, _c in self.funcs]

    def _required_child(self) -> RequiredProps:
        spec = self.funcs[0][0]
        keys = [SortKey(c.id) for c in spec.partition_by]
        keys += [SortKey(c.id, asc) for c, asc in spec.order_by]
        order = OrderSpec(tuple(keys))
        if spec.partition_by:
            dist: DistributionSpec = HashedDist.on(spec.partition_by)
        else:
            dist = SINGLETON
        return RequiredProps(dist, order)

    def child_request_alternatives(self, req):
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        child = self._required_child()
        if isinstance(child.dist, SingletonDist):
            return ((child,),)
        return ((child,), (RequiredProps(SINGLETON, child.order),))

    def derive_delivered(self, child_delivered):
        child = child_delivered[0]
        spec = self.funcs[0][0]
        if spec.partition_by:
            ok = isinstance(child.dist, (SingletonDist, ReplicatedDist)) or (
                isinstance(child.dist, HashedDist)
                and set(child.dist.columns) <= {c.id for c in spec.partition_by}
            )
        else:
            ok = isinstance(child.dist, (SingletonDist, ReplicatedDist))
        if not ok:
            return None
        return DerivedProps(child.dist, child.order)

    def __repr__(self) -> str:
        return f"Window({', '.join(f.name for f, _c in self.funcs)})"


class PhysicalLimit(PhysicalOp):
    """Top-N: requires a singleton, ordered child."""

    name = "Limit"
    arity = 1

    def __init__(
        self,
        sort_keys: Sequence[tuple[ColRef, bool]],
        limit: Optional[int],
        offset: int = 0,
    ):
        self.sort_keys = tuple(sort_keys)
        self.limit = limit
        self.offset = offset
        #: What the child must deliver, and what this delivers.
        self.order = OrderSpec(
            tuple(SortKey(c.id, asc) for c, asc in self.sort_keys)
        )

    def key(self) -> tuple:
        return (
            "PLimit",
            tuple((c.id, asc) for c, asc in self.sort_keys),
            self.limit,
            self.offset,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def child_request_alternatives(self, req):
        if not req.order.is_empty() and not self.order.satisfies(req.order):
            return ()
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        return ((RequiredProps(SINGLETON, self.order),),)

    def derive_delivered(self, child_delivered):
        if not isinstance(child_delivered[0].dist, SingletonDist):
            return None
        if not child_delivered[0].order.satisfies(self.order):
            return None
        return DerivedProps(SINGLETON, self.order)

    def __repr__(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class PhysicalAppend(PhysicalOp):
    """Bag union (UNION ALL implementation)."""

    name = "Append"
    arity = None

    def __init__(
        self,
        output_cols: Sequence[ColRef],
        input_cols: Sequence[Sequence[ColRef]],
    ):
        self.output_cols = tuple(output_cols)
        self.input_cols = tuple(tuple(cols) for cols in input_cols)

    def key(self) -> tuple:
        return (
            "Append",
            tuple(c.id for c in self.output_cols),
            tuple(tuple(c.id for c in cols) for cols in self.input_cols),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.output_cols)

    def child_request_alternatives(self, req):
        n = len(self.input_cols)
        alts = [
            tuple(RequiredProps(ANY_DIST) for _ in range(n)),
            tuple(RequiredProps(SINGLETON) for _ in range(n)),
        ]
        if isinstance(req.dist, HashedDist):
            # Request each child hashed on its columns corresponding to the
            # requested output columns.
            out_pos = {c.id: i for i, c in enumerate(self.output_cols)}
            if all(c in out_pos for c in req.dist.columns):
                per_child = []
                for cols in self.input_cols:
                    ids = tuple(
                        cols[out_pos[c]].id for c in req.dist.columns
                    )
                    per_child.append(RequiredProps(HashedDist(ids)))
                alts.insert(0, tuple(per_child))
        return tuple(alts)

    def derive_delivered(self, child_delivered):
        dists = [d.dist for d in child_delivered]
        if all(isinstance(d, SingletonDist) for d in dists):
            return DerivedProps(SINGLETON, ANY_ORDER)
        if any(isinstance(d, SingletonDist) for d in dists):
            return None
        # Aligned hashed inputs deliver hashed output.
        if all(isinstance(d, HashedDist) for d in dists):
            positions = None
            for d, cols in zip(dists, self.input_cols):
                in_pos = {c.id: i for i, c in enumerate(cols)}
                try:
                    pos = tuple(in_pos[c] for c in d.columns)
                except KeyError:
                    positions = None
                    break
                if positions is None:
                    positions = pos
                elif positions != pos:
                    positions = None
                    break
            if positions is not None:
                out_ids = tuple(self.output_cols[p].id for p in positions)
                return DerivedProps(HashedDist(out_ids), ANY_ORDER)
        return DerivedProps(RANDOM, ANY_ORDER)

    def __repr__(self) -> str:
        return f"Append({len(self.input_cols)} inputs)"


# ----------------------------------------------------------------------
# Enforcers (Section 4.1, Figures 6-7)
# ----------------------------------------------------------------------

class EnforcerOp(PhysicalOp):
    """Base for enforcer operators added to groups during optimization."""

    is_enforcer = True
    arity = 1

    def serves(self, req: RequiredProps) -> bool:
        """Can this enforcer (alone) bridge toward ``req``?"""
        raise NotImplementedError

    def child_request(self, req: RequiredProps) -> RequiredProps:
        """The strictly weaker request passed back into the same group."""
        raise NotImplementedError


class PhysicalSort(EnforcerOp):
    """Sort enforcer: delivers its order, preserves distribution."""

    name = "Sort"

    def __init__(self, order: OrderSpec):
        self.order = order

    def key(self) -> tuple:
        return ("Sort", self.order.key())

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def serves(self, req: RequiredProps) -> bool:
        return not req.order.is_empty() and self.order.satisfies(req.order)

    def child_request(self, req: RequiredProps) -> RequiredProps:
        return RequiredProps(req.dist, ANY_ORDER)

    def child_request_alternatives(self, req):
        return ((self.child_request(req),),)

    def derive_delivered(self, child_delivered):
        return DerivedProps(child_delivered[0].dist, self.order)

    def __repr__(self) -> str:
        return f"Sort({self.order!r})"


class PhysicalGather(EnforcerOp):
    """Gather tuples from all segments to the master; destroys order."""

    name = "Gather"

    def key(self) -> tuple:
        return ("Gather",)

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def serves(self, req: RequiredProps) -> bool:
        return isinstance(req.dist, SingletonDist) and req.order.is_empty()

    def child_request(self, req: RequiredProps) -> RequiredProps:
        return ANY_PROPS

    def child_request_alternatives(self, req):
        return _ANY_CHILD

    def derive_delivered(self, child_delivered):
        return DerivedProps(SINGLETON, ANY_ORDER)

    def __repr__(self) -> str:
        return "Gather"


class PhysicalGatherMerge(EnforcerOp):
    """Order-preserving gather to the master (Figure 6, expression 8)."""

    name = "GatherMerge"

    def __init__(self, order: OrderSpec):
        self.order = order

    def key(self) -> tuple:
        return ("GatherMerge", self.order.key())

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def serves(self, req: RequiredProps) -> bool:
        return isinstance(req.dist, SingletonDist) and not req.order.is_empty() \
            and self.order.satisfies(req.order)

    def child_request(self, req: RequiredProps) -> RequiredProps:
        return RequiredProps(ANY_DIST, self.order)

    def child_request_alternatives(self, req):
        return self._alternatives

    @cached_property
    def _alternatives(self) -> tuple[tuple[RequiredProps, ...], ...]:
        return ((RequiredProps(ANY_DIST, self.order),),)

    def derive_delivered(self, child_delivered):
        if not child_delivered[0].order.satisfies(self.order):
            return None
        return DerivedProps(SINGLETON, self.order)

    def __repr__(self) -> str:
        return f"GatherMerge({self.order!r})"


class PhysicalRedistribute(EnforcerOp):
    """Hash-redistribute tuples across segments; destroys order."""

    name = "Redistribute"

    def __init__(self, columns: Sequence[ColRef]):
        self.columns = tuple(columns)

    def key(self) -> tuple:
        return ("Redistribute", tuple(c.id for c in self.columns))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def serves(self, req: RequiredProps) -> bool:
        return (
            isinstance(req.dist, HashedDist)
            and req.dist.columns == tuple(c.id for c in self.columns)
            and req.order.is_empty()
        )

    def child_request(self, req: RequiredProps) -> RequiredProps:
        return ANY_PROPS

    def child_request_alternatives(self, req):
        return _ANY_CHILD

    def derive_delivered(self, child_delivered):
        return DerivedProps(HashedDist.on(self.columns), ANY_ORDER)

    def __repr__(self) -> str:
        return f"Redistribute({', '.join(map(str, self.columns))})"


class PhysicalBroadcast(EnforcerOp):
    """Replicate tuples to every segment; destroys order."""

    name = "Broadcast"

    def key(self) -> tuple:
        return ("Broadcast",)

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def serves(self, req: RequiredProps) -> bool:
        return isinstance(req.dist, ReplicatedDist) and req.order.is_empty()

    def child_request(self, req: RequiredProps) -> RequiredProps:
        return ANY_PROPS

    def child_request_alternatives(self, req):
        return _ANY_CHILD

    def derive_delivered(self, child_delivered):
        return DerivedProps(REPLICATED, ANY_ORDER)

    def __repr__(self) -> str:
        return "Broadcast"


# ----------------------------------------------------------------------
# CTEs (Section 7.2.2, Common Expressions)
# ----------------------------------------------------------------------

class PhysicalSequence(PhysicalOp):
    """Executes producer plan(s) first, then the main plan.

    In the Memo it implements CTEAnchor with a single (main) child; the
    optimized producer plan is attached during plan extraction.
    """

    name = "Sequence"
    arity = 1

    def __init__(self, cte_id: int):
        self.cte_id = cte_id

    def key(self) -> tuple:
        return ("Sequence", self.cte_id)

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def child_request_alternatives(self, req):
        return ((req,),)

    def derive_delivered(self, child_delivered):
        return child_delivered[0]

    def __repr__(self) -> str:
        return f"Sequence(cte={self.cte_id})"


class PhysicalCTEProducer(PhysicalOp):
    """Materializes its child's output into a shared spool."""

    name = "CTEProducer"
    arity = 1

    def __init__(self, cte_id: int, columns: Sequence[ColRef]):
        self.cte_id = cte_id
        self.columns = tuple(columns)

    def key(self) -> tuple:
        return ("CTEProducer", self.cte_id, tuple(c.id for c in self.columns))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.columns)

    def child_request_alternatives(self, req):
        return _ANY_CHILD

    def derive_delivered(self, child_delivered):
        return child_delivered[0]

    def __repr__(self) -> str:
        return f"CTEProducer({self.cte_id})"


class PhysicalCTEConsumer(PhysicalOp):
    """Reads the shared spool, renaming producer columns to its own."""

    name = "CTEConsumer"
    arity = 0

    def __init__(
        self,
        cte_id: int,
        output_cols: Sequence[ColRef],
        producer_cols: Sequence[ColRef],
        delivered_dist: DistributionSpec,
    ):
        self.cte_id = cte_id
        self.output_cols = tuple(output_cols)
        self.producer_cols = tuple(producer_cols)
        self.delivered_dist = delivered_dist

    def key(self) -> tuple:
        return (
            "PCTEConsumer",
            self.cte_id,
            tuple(c.id for c in self.output_cols),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.output_cols)

    def child_request_alternatives(self, req):
        return _LEAF

    def derive_delivered(self, child_delivered):
        return DerivedProps(self.delivered_dist, ANY_ORDER)

    def __repr__(self) -> str:
        return f"CTEConsumer({self.cte_id})"
