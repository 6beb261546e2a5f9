"""Implementation rules: generate physical implementations.

Step 3 of the optimization workflow (Section 4.1): e.g. Get2Scan generates
a physical table Scan out of a logical Get; InnerJoin2HashJoin and
InnerJoin2NLJoin generate hash and nested-loops implementations.
"""

from __future__ import annotations

from typing import Optional

from repro.catalog.statistics import axis_value
from repro.memo.memo import GroupExpression, group_ref
from repro.ops import physical as ph
from repro.ops.expression import Expression
from repro.ops.logical import (
    JoinKind,
    LogicalApply,
    LogicalCTEAnchor,
    LogicalCTEConsumer,
    LogicalGbAgg,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    LogicalWindow,
)
from repro.ops.scalar import (
    ColRefExpr,
    conjuncts,
    equi_join_pairs,
    literal_bound,
    make_conj,
)
from repro.xforms.rule import Rule, RuleContext


class Get2TableScan(Rule):
    """Get -> TableScan (plus DynamicScan when a DPE hint is attached)."""

    name = "Get2TableScan"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalGet)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGet = gexpr.op
        out = [
            Expression(
                ph.PhysicalTableScan(op.table, op.columns, op.alias, op.partitions)
            )
        ]
        if op.dpe is not None and ctx.config.enable_partition_elimination:
            out.append(
                Expression(
                    ph.PhysicalDynamicTableScan(
                        op.table, op.columns, op.alias, op.partitions, op.dpe
                    )
                )
            )
        return out


class Get2IndexScan(Rule):
    """Get -> IndexScan on each available index (delivers sorted rows)."""

    name = "Get2IndexScan"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalGet) and bool(gexpr.op.table.indexes)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGet = gexpr.op
        out = []
        for index in op.table.indexes:
            col_pos = op.table.column_index(index.column)
            out.append(
                Expression(
                    ph.PhysicalIndexScan(
                        op.table, op.columns, op.alias, index,
                        op.columns[col_pos],
                    )
                )
            )
        return out


class Select2Filter(Rule):
    """Select -> Filter."""

    name = "Select2Filter"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalSelect)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalFilter(gexpr.op.predicate),
                [group_ref(ctx.memo, child)],
            )
        ]


class Select2IndexScan(Rule):
    """Select(Get) -> IndexScan with bounds extracted from the predicate.

    A two-node pattern: the rule inspects the child group for a logical
    Get whose table has an index on a column the predicate constrains.
    """

    name = "Select2IndexScan"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalSelect)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        memo = ctx.memo
        (child,) = gexpr.child_groups
        out = []
        for child_gexpr in memo.group(child).logical_gexprs():
            if not isinstance(child_gexpr.op, LogicalGet):
                continue
            get: LogicalGet = child_gexpr.op
            for index in get.table.indexes:
                expr = self._try_index(gexpr, get, index, ctx)
                if expr is not None:
                    out.append(expr)
        return out

    def _try_index(
        self, gexpr: GroupExpression, get: LogicalGet, index, ctx: RuleContext
    ) -> Optional[Expression]:
        col_pos = get.table.column_index(index.column)
        index_col = get.columns[col_pos]
        lo = hi = None
        lo_inc = hi_inc = True
        residual = []
        bounded = False
        for conj in conjuncts(gexpr.op.predicate):
            bound = literal_bound(conj, index_col.id)
            if bound is None:
                residual.append(conj)
                continue
            op, value = bound
            bounded = True
            if op == "=":
                lo = hi = value
            elif op in (">", ">="):
                if lo is None or axis_value(value) > axis_value(lo):
                    lo, lo_inc = value, op == ">="
            else:
                if hi is None or axis_value(value) < axis_value(hi):
                    hi, hi_inc = value, op == "<="
        if not bounded:
            return None
        fetch = self._fetch_estimate(ctx, get, index_col, lo, hi, lo_inc, hi_inc)
        return Expression(
            ph.PhysicalIndexScan(
                get.table, get.columns, get.alias, index, index_col,
                lo, hi, lo_inc, hi_inc,
                residual=make_conj(residual),
                fetch_rows_estimate=fetch,
            )
        )

    @staticmethod
    def _fetch_estimate(ctx, get, index_col, lo, hi, lo_inc, hi_inc):
        # Estimate fetched rows from the base table's statistics.
        if ctx.table_stats is None:
            return None
        stats = ctx.table_stats(get.table.name)
        if stats is None:
            return None
        # The ColRef position within the Get tells us the catalog column.
        col_name = get.table.columns[get.columns.index(index_col)].name
        col = stats.column(col_name)
        if col is None or col.histogram is None:
            return None
        if lo is not None and hi is not None and lo == hi:
            sel = col.histogram.select_eq(lo)
        else:
            sel = col.histogram.select_range(
                lo=lo, hi=hi, lo_inclusive=lo_inc, hi_inclusive=hi_inc
            )
        return stats.row_count * sel


class Project2ComputeScalar(Rule):
    """Project -> physical Project."""

    name = "Project2ComputeScalar"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalProject)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalProject(gexpr.op.projections),
                [group_ref(ctx.memo, child)],
            )
        ]


class Join2HashJoin(Rule):
    """Join -> HashJoin when at least one equi-join pair exists."""

    name = "InnerJoin2HashJoin"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalJoin)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        memo = ctx.memo
        op: LogicalJoin = gexpr.op
        left_g, right_g = gexpr.child_groups
        left_cols = {c.id for c in memo.group(left_g).output_cols}
        right_cols = {c.id for c in memo.group(right_g).output_cols}
        pairs = equi_join_pairs(op.condition, frozenset(left_cols), frozenset(right_cols))
        if not pairs:
            return []
        pair_keys = {
            ("cmp", "=", ColRefExpr(l).key(), ColRefExpr(r).key())
            for l, r in pairs
        } | {
            ("cmp", "=", ColRefExpr(r).key(), ColRefExpr(l).key())
            for l, r in pairs
        }
        residual = make_conj(
            c for c in conjuncts(op.condition) if c.key() not in pair_keys
        )
        return [
            Expression(
                ph.PhysicalHashJoin(
                    op.kind,
                    [l for l, _r in pairs],
                    [r for _l, r in pairs],
                    residual,
                ),
                [group_ref(memo, left_g), group_ref(memo, right_g)],
            )
        ]


class Join2MergeJoin(Rule):
    """Join -> sort-merge join (inner and left outer equi-joins).

    Attractive when the key order comes for free (index scans) or is
    required upstream anyway — the merge preserves it.
    """

    name = "InnerJoin2MergeJoin"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalJoin) and gexpr.op.kind in (
            JoinKind.INNER, JoinKind.LEFT,
        )

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        memo = ctx.memo
        op: LogicalJoin = gexpr.op
        left_g, right_g = gexpr.child_groups
        left_cols = {c.id for c in memo.group(left_g).output_cols}
        right_cols = {c.id for c in memo.group(right_g).output_cols}
        pairs = equi_join_pairs(
            op.condition, frozenset(left_cols), frozenset(right_cols)
        )
        if not pairs:
            return []
        pair_keys = {
            ("cmp", "=", ColRefExpr(l).key(), ColRefExpr(r).key())
            for l, r in pairs
        } | {
            ("cmp", "=", ColRefExpr(r).key(), ColRefExpr(l).key())
            for l, r in pairs
        }
        residual = make_conj(
            c for c in conjuncts(op.condition) if c.key() not in pair_keys
        )
        return [
            Expression(
                ph.PhysicalMergeJoin(
                    op.kind,
                    [l for l, _r in pairs],
                    [r for _l, r in pairs],
                    residual,
                ),
                [group_ref(memo, left_g), group_ref(memo, right_g)],
            )
        ]


class Join2NLJoin(Rule):
    """Join -> NLJoin (always applicable, incl. non-equi conditions)."""

    name = "InnerJoin2NLJoin"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalJoin)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalJoin = gexpr.op
        left_g, right_g = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalNLJoin(op.kind, op.condition),
                [group_ref(ctx.memo, left_g), group_ref(ctx.memo, right_g)],
            )
        ]


class Apply2CorrelatedNLJoin(Rule):
    """Apply -> correlated nested loops (re-executes inner per outer row)."""

    name = "Apply2CorrelatedNLJoin"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalApply)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalApply = gexpr.op
        outer_g, inner_g = gexpr.child_groups
        inner_cols = ctx.memo.group(inner_g).output_cols
        return [
            Expression(
                ph.PhysicalCorrelatedNLJoin(op.kind, op.outer_refs, inner_cols),
                [group_ref(ctx.memo, outer_g), group_ref(ctx.memo, inner_g)],
            )
        ]


class GbAgg2HashAgg(Rule):
    """GbAgg -> HashAgg."""

    name = "GbAgg2HashAgg"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalGbAgg)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGbAgg = gexpr.op
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalHashAgg(op.group_cols, op.aggs, op.stage),
                [group_ref(ctx.memo, child)],
            )
        ]


class GbAgg2StreamAgg(Rule):
    """GbAgg -> StreamAgg (grouped aggregation over sorted input)."""

    name = "GbAgg2StreamAgg"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalGbAgg) and bool(gexpr.op.group_cols)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGbAgg = gexpr.op
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalStreamAgg(op.group_cols, op.aggs, op.stage),
                [group_ref(ctx.memo, child)],
            )
        ]


class Limit2Limit(Rule):
    """Limit -> physical Limit."""

    name = "Limit2Limit"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalLimit)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalLimit = gexpr.op
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalLimit(op.sort_keys, op.limit, op.offset),
                [group_ref(ctx.memo, child)],
            )
        ]


class UnionAll2Append(Rule):
    """UnionAll -> Append."""

    name = "UnionAll2Append"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalUnionAll)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalUnionAll = gexpr.op
        return [
            Expression(
                ph.PhysicalAppend(op.output_cols, op.input_cols),
                [group_ref(ctx.memo, g) for g in gexpr.child_groups],
            )
        ]


class Window2Window(Rule):
    """Window -> physical Window."""

    name = "Window2Window"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalWindow)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalWindow(gexpr.op.funcs),
                [group_ref(ctx.memo, child)],
            )
        ]


class CTEAnchor2Sequence(Rule):
    """CTEAnchor -> Sequence (producer attached at plan extraction)."""

    name = "CTEAnchor2Sequence"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalCTEAnchor)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        (child,) = gexpr.child_groups
        return [
            Expression(
                ph.PhysicalSequence(gexpr.op.cte_id),
                [group_ref(ctx.memo, child)],
            )
        ]


class CTEConsumer2Scan(Rule):
    """CTEConsumer -> physical spool read.

    The delivered distribution mirrors what the (separately optimized)
    producer plan delivers, with producer columns remapped to this
    consumer's columns.
    """

    name = "CTEConsumer2Scan"
    is_implementation = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalCTEConsumer)

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        from repro.props.distribution import HashedDist, RANDOM

        op: LogicalCTEConsumer = gexpr.op
        delivered = ctx.cte_delivered.get(op.cte_id, RANDOM)
        if isinstance(delivered, HashedDist):
            mapping = {
                p.id: o.id for p, o in zip(op.producer_cols, op.output_cols)
            }
            delivered = delivered.remapped(mapping)
        return [
            Expression(
                ph.PhysicalCTEConsumer(
                    op.cte_id, op.output_cols, op.producer_cols, delivered
                )
            )
        ]
