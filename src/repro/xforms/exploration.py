"""Exploration rules: generate logically equivalent expressions.

These are the rules triggered in step 1 of the optimization workflow
(Section 4.1): e.g. Join Commutativity generates ``InnerJoin[2,1]`` from
``InnerJoin[1,2]`` (Figure 5).
"""

from __future__ import annotations

from repro.catalog.types import INT
from repro.memo.memo import GroupExpression, group_ref
from repro.ops.expression import Expression
from repro.ops.logical import (
    AggStage,
    JoinKind,
    LogicalGbAgg,
    LogicalJoin,
    LogicalProject,
)
from repro.ops.scalar import (
    AggFunc,
    Arith,
    CaseExpr,
    ColRefExpr,
    IsNull,
    Literal,
    conjuncts,
    make_conj,
)
from repro.xforms.rule import Rule, RuleContext


class JoinCommutativity(Rule):
    """InnerJoin(A, B) -> InnerJoin(B, A)."""

    name = "JoinCommutativity"
    is_exploration = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalJoin) and gexpr.op.kind is JoinKind.INNER

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        left, right = gexpr.child_groups
        return [
            Expression(
                LogicalJoin(JoinKind.INNER, gexpr.op.condition),
                [group_ref(ctx.memo, right), group_ref(ctx.memo, left)],
            )
        ]


class JoinAssociativity(Rule):
    """InnerJoin(InnerJoin(A, B), C) -> InnerJoin(A, InnerJoin(B, C)).

    Join conditions are re-partitioned by the columns they reference; the
    rewrite is skipped when it would introduce a cross product.
    """

    name = "JoinAssociativity"
    is_exploration = True

    def matches(self, gexpr: GroupExpression) -> bool:
        return isinstance(gexpr.op, LogicalJoin) and gexpr.op.kind is JoinKind.INNER

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        memo = ctx.memo
        g_ab, g_c = gexpr.child_groups
        results = []
        for inner in memo.group(g_ab).logical_gexprs():
            if not (
                isinstance(inner.op, LogicalJoin)
                and inner.op.kind is JoinKind.INNER
            ):
                continue
            g_a, g_b = inner.child_groups
            cols_bc = {c.id for c in memo.group(g_b).output_cols}
            cols_bc |= {c.id for c in memo.group(g_c).output_cols}
            all_conjuncts = conjuncts(gexpr.op.condition) + conjuncts(
                inner.op.condition
            )
            bc_conj = [
                c for c in all_conjuncts if c.used_columns() <= cols_bc
            ]
            top_conj = [
                c for c in all_conjuncts if not (c.used_columns() <= cols_bc)
            ]
            if not bc_conj:
                continue  # avoid cross products
            if not top_conj:
                continue  # the result would cross-join A with (B JOIN C)
            new_inner = Expression(
                LogicalJoin(JoinKind.INNER, make_conj(bc_conj)),
                [group_ref(memo, g_b), group_ref(memo, g_c)],
            )
            results.append(
                Expression(
                    LogicalJoin(JoinKind.INNER, make_conj(top_conj)),
                    [group_ref(memo, g_a), new_inner],
                )
            )
        return results


#: Aggregates that can be computed in two phases, each with the function
#: that folds its partial results.  ``avg`` splits into a ``sum`` and a
#: ``count`` (:func:`_split_aggs`).
_FINAL_FUNC = {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
_SPLITTABLE = set(_FINAL_FUNC) | {"avg"}


def _split_aggs(aggs, ctx: RuleContext, scalar_over_groups: bool = False):
    """Split each aggregate into a lower stage over the rows and an
    upper stage over the lower stage's results.

    Returns ``(lower, upper, projections)``: the lower and upper
    ``(AggFunc, ColRef)`` lists, and the ``(expr, ColRef)`` pairs a
    Project above the upper stage computes.  ``avg(x)`` is ``sum(x)``
    and ``count(x)`` below, both summed above, and ``fs / fc`` in the
    Project, which is NULL on a zero count or a NULL sum, as SQL's
    ``avg`` is.  With ``scalar_over_groups`` the upper stage is a scalar
    aggregate over a grouped lower one, which yields no row on empty
    input, so a ``count``'s sum is NULL there and the Project makes it 0.
    """
    cols = ctx.column_factory
    lower, upper, projections = [], [], []
    for agg, out_col in aggs:
        if agg.name == "avg":
            ps = cols.next(f"ps_{out_col.name}", agg.arg.dtype)
            pc = cols.next(f"pc_{out_col.name}", INT)
            fs = cols.next(f"fs_{out_col.name}", agg.arg.dtype)
            fc = cols.next(f"fc_{out_col.name}", INT)
            lower += [
                (AggFunc("sum", agg.arg), ps), (AggFunc("count", agg.arg), pc)
            ]
            upper += [
                (AggFunc("sum", ColRefExpr(ps)), fs),
                (AggFunc("sum", ColRefExpr(pc)), fc),
            ]
            projections.append(
                (Arith("/", ColRefExpr(fs), ColRefExpr(fc)), out_col)
            )
            continue
        partial = cols.next(f"p_{out_col.name}", agg.dtype)
        lower.append((agg, partial))
        final = AggFunc(_FINAL_FUNC[agg.name], ColRefExpr(partial))
        if agg.name == "count" and scalar_over_groups:
            total = cols.next(f"f_{out_col.name}", INT)
            upper.append((final, total))
            projections.append((
                CaseExpr(
                    [(IsNull(ColRefExpr(total)), Literal(0, INT))],
                    ColRefExpr(total),
                ),
                out_col,
            ))
            continue
        upper.append((final, out_col))
    return lower, upper, projections


def _with_projections(expr: Expression, projections) -> Expression:
    if not projections:
        return expr
    return Expression(LogicalProject(projections), [expr])


class SplitGbAgg(Rule):
    """GbAgg -> [Project] GbAggFinal(GbAggPartial(child)): two-phase MPP
    aggregation.

    The partial stage pre-aggregates locally on each segment before any
    motion, drastically shrinking redistributed/gathered row counts.
    ``count``, ``sum``, ``min`` and ``max`` fold their partials with
    ``sum`` / ``min`` / ``max``; ``avg`` is a partial ``sum`` and
    ``count``, summed by the final stage and divided by a Project above
    it.  DISTINCT aggregates are :class:`SplitDQA`'s.
    """

    name = "SplitGbAgg"
    is_exploration = True

    def matches(self, gexpr: GroupExpression) -> bool:
        op = gexpr.op
        return (
            isinstance(op, LogicalGbAgg)
            and op.stage is AggStage.GLOBAL
            and all(
                a.name in _SPLITTABLE and not a.distinct for a, _c in op.aggs
            )
        )

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGbAgg = gexpr.op
        (child,) = gexpr.child_groups
        partial_aggs, final_aggs, projections = _split_aggs(op.aggs, ctx)
        partial = Expression(
            LogicalGbAgg(op.group_cols, partial_aggs, AggStage.PARTIAL),
            [group_ref(ctx.memo, child)],
        )
        final = Expression(
            LogicalGbAgg(op.group_cols, final_aggs, AggStage.FINAL),
            [partial],
        )
        return [_with_projections(final, projections)]


class SplitDQA(Rule):
    """Split a DISTINCT-qualified aggregation (GPORCA's split DQA).

    ``GbAgg(g; f(DISTINCT x), a(y))`` becomes ``GbAgg(g; f(x),
    final(a)(p))`` over ``GbAgg(g + x; a(y) -> p)``: the lower group-by
    removes the duplicates of ``x`` (locally, when its input is already
    hashed on ``g + x``), so each ``x`` reaches the upper one once per
    group, and the plain aggregates are folded in two steps as
    :class:`SplitGbAgg` folds them.  Both are GLOBAL, so
    :class:`SplitGbAgg` can split each further.  It applies when every
    DISTINCT aggregate has the same column argument, not a group
    column, and every other aggregate is splittable.
    """

    name = "SplitDQA"
    is_exploration = True

    def matches(self, gexpr: GroupExpression) -> bool:
        op = gexpr.op
        if not (isinstance(op, LogicalGbAgg) and op.stage is AggStage.GLOBAL):
            return False
        args = {a.arg for a, _c in op.aggs if a.distinct}
        if len(args) != 1:
            return False
        (arg,) = args
        return (
            isinstance(arg, ColRefExpr)
            and arg.ref not in op.group_cols
            and all(
                a.distinct or a.name in _SPLITTABLE for a, _c in op.aggs
            )
        )

    def apply(self, gexpr: GroupExpression, ctx: RuleContext):
        op: LogicalGbAgg = gexpr.op
        (child,) = gexpr.child_groups
        distinct = [(a, c) for a, c in op.aggs if a.distinct]
        lower_aggs, upper_aggs, projections = _split_aggs(
            [(a, c) for a, c in op.aggs if not a.distinct], ctx,
            scalar_over_groups=not op.group_cols,
        )
        arg = distinct[0][0].arg
        lower = Expression(
            LogicalGbAgg(op.group_cols + (arg.ref,), lower_aggs),
            [group_ref(ctx.memo, child)],
        )
        upper = Expression(
            LogicalGbAgg(
                op.group_cols,
                [(AggFunc(a.name, a.arg), c) for a, c in distinct]
                + upper_aggs,
            ),
            [lower],
        )
        return [_with_projections(upper, projections)]
