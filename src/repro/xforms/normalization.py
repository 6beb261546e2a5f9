"""Logical preprocessing applied before Memo copy-in.

Four normalizations run on the translated logical tree:

1. **Decorrelation** (Section 7.2.2, Correlated Subqueries): Apply
   operators whose correlation can be pulled up become joins — semi/anti
   applies with correlated predicates on the inner spine, and scalar-agg
   applies via the classic push-group-by rewrite.
2. **Predicate pushdown**: WHERE conjuncts migrate toward the scans they
   constrain and into join conditions.
3. **Static partition elimination**: literal predicates on a partition
   column shrink the Get's partition list.
4. **Dynamic partition elimination hints** (Section 7.2.2, Partition
   Elimination): joins of a partitioned fact table with a filtered
   dimension on the partition column attach a DPEHint to the fact Get,
   enabling the DynamicScan implementation alternative.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.catalog.statistics import DEFAULT_EQ_SELECTIVITY
from repro.config import OptimizerConfig
from repro.memo.context import StatsObject
from repro.ops.expression import Expression
from repro.ops.logical import (
    AggStage,
    ApplyKind,
    JoinKind,
    LogicalApply,
    LogicalGbAgg,
    LogicalGet,
    LogicalJoin,
    LogicalProject,
    LogicalSelect,
)
from repro.ops.scalar import (
    ColRefExpr,
    ColumnFactory,
    Comparison,
    conjuncts,
    literal_bound,
    make_conj,
)
from repro.stats.selectivity import apply_predicate


def preprocess(
    tree: Expression,
    config: OptimizerConfig,
    table_stats: Callable,
    factory: ColumnFactory,
) -> Expression:
    """Run the full normalization pipeline."""
    if config.enable_decorrelation:
        tree = decorrelate(tree)
    tree = push_down_predicates(tree)
    tree = static_partition_elimination(tree)
    if config.enable_partition_elimination:
        tree = attach_dpe_hints(tree, table_stats)
    return tree


# ----------------------------------------------------------------------
# Decorrelation
# ----------------------------------------------------------------------

def _tree_output_ids(tree: Expression) -> frozenset[int]:
    return frozenset(c.id for c in tree.output_columns())


def decorrelate(tree: Expression) -> Expression:
    """Rewrite Apply operators into joins where a pattern matches."""
    children = [decorrelate(c) for c in tree.children]
    tree = Expression(tree.op, children)
    if not isinstance(tree.op, LogicalApply):
        return tree
    apply_op: LogicalApply = tree.op
    outer, inner = tree.children
    if not apply_op.outer_refs:
        # Uncorrelated subquery: a plain (semi/anti/left) join.
        return Expression(
            LogicalJoin(apply_op.kind.to_join_kind(), None), [outer, inner]
        )
    if apply_op.kind in (ApplyKind.SEMI, ApplyKind.ANTI):
        rewritten = _decorrelate_spine(apply_op, outer, inner)
        if rewritten is not None:
            return rewritten
    if apply_op.kind is ApplyKind.SCALAR:
        rewritten = _decorrelate_scalar_agg(apply_op, outer, inner)
        if rewritten is not None:
            return rewritten
    return tree


def _peel_selects(inner: Expression):
    """Split the top-of-inner Select/Project spine.

    Returns (conjuncts, projects innermost-first, base tree).  Projects
    are peeled too because translators wrap subquery select lists in a
    Project (e.g. ``SELECT 1`` inside EXISTS); they are reapplied beneath
    the rebuilt filter so computed columns stay visible.
    """
    preds = []
    projects: list[LogicalProject] = []
    node = inner
    while isinstance(node.op, (LogicalSelect, LogicalProject)):
        if isinstance(node.op, LogicalSelect):
            preds.extend(conjuncts(node.op.predicate))
        else:
            projects.append(node.op)
        node = node.children[0]
    projects.reverse()
    return preds, projects, node


def _rebuild_inner(base: Expression, projects, local_preds) -> Expression:
    new_inner = base
    for project in projects:
        new_inner = Expression(project, [new_inner])
    local_pred = make_conj(local_preds)
    if local_pred is not None:
        new_inner = Expression(LogicalSelect(local_pred), [new_inner])
    return new_inner


def _decorrelate_spine(
    apply_op: LogicalApply, outer: Expression, inner: Expression
) -> Optional[Expression]:
    """SemiApply/AntiApply with correlation on the inner spine -> join."""
    preds, projects, base = _peel_selects(inner)
    outer_refs = apply_op.outer_refs
    if _tree_uses(base, outer_refs) or any(
        p.used_columns() & outer_refs for proj in projects
        for p in proj.scalar_exprs()
    ):
        return None  # correlation buried deeper than the spine
    correlated = [p for p in preds if p.used_columns() & outer_refs]
    local = [p for p in preds if not (p.used_columns() & outer_refs)]
    if not correlated:
        return None
    new_inner = _rebuild_inner(base, projects, local)
    kind = JoinKind.SEMI if apply_op.kind is ApplyKind.SEMI else JoinKind.ANTI
    return Expression(
        LogicalJoin(kind, make_conj(correlated)), [outer, new_inner]
    )


def _decorrelate_scalar_agg(
    apply_op: LogicalApply, outer: Expression, inner: Expression
) -> Optional[Expression]:
    """ScalarApply over a scalar aggregate -> group-by pushed join.

    ``x > (SELECT avg(y) FROM t WHERE t.k = o.k)`` becomes a left join of
    the outer with ``SELECT k, avg(y) FROM t GROUP BY k``.  Count
    aggregates are excluded (an empty group must yield 0, which the join
    would turn into NULL).
    """
    post_preds, post_projects, node = _peel_selects(inner)
    if post_preds:
        return None
    if any(
        p.used_columns() & apply_op.outer_refs
        for proj in post_projects for p in proj.scalar_exprs()
    ):
        return None
    if not isinstance(node.op, LogicalGbAgg):
        return None
    agg_op: LogicalGbAgg = node.op
    if agg_op.group_cols or agg_op.stage is not AggStage.GLOBAL:
        return None
    if any(a.name == "count" for a, _c in agg_op.aggs):
        return None
    preds, projects, base = _peel_selects(node.children[0])
    outer_refs = apply_op.outer_refs
    if _tree_uses(base, outer_refs) or any(
        p.used_columns() & outer_refs for proj in projects
        for p in proj.scalar_exprs()
    ):
        return None
    correlated = [p for p in preds if p.used_columns() & outer_refs]
    local = [p for p in preds if not (p.used_columns() & outer_refs)]
    if not correlated:
        return None
    rebuilt = _rebuild_inner(base, projects, local)
    base_ids = _tree_output_ids(rebuilt)
    pairs = []  # (inner ColRef, outer ColRef)
    for pred in correlated:
        if not (
            isinstance(pred, Comparison)
            and pred.op == "="
            and isinstance(pred.left, ColRefExpr)
            and isinstance(pred.right, ColRefExpr)
        ):
            return None
        a, b = pred.left.ref, pred.right.ref
        if a.id in base_ids and b.id in outer_refs:
            pairs.append((a, b))
        elif b.id in base_ids and a.id in outer_refs:
            pairs.append((b, a))
        else:
            return None
    group_cols = [inner_col for inner_col, _outer_col in pairs]
    grouped = Expression(
        LogicalGbAgg(group_cols, agg_op.aggs), [rebuilt]
    )
    # Projections that sat above the scalar aggregate (e.g. avg(x) * 1.2)
    # are re-applied on top of the grouped result, innermost first.
    for project in post_projects:
        grouped = Expression(project, [grouped])
    condition = make_conj(
        Comparison("=", ColRefExpr(i), ColRefExpr(o)) for i, o in pairs
    )
    return Expression(LogicalJoin(JoinKind.LEFT, condition), [outer, grouped])


def _tree_uses(tree: Expression, col_ids: frozenset[int]) -> bool:
    for node in tree.walk():
        if node.op.used_columns() & col_ids:
            return True
    return False


# ----------------------------------------------------------------------
# Predicate pushdown
# ----------------------------------------------------------------------

def push_down_predicates(tree: Expression) -> Expression:
    children = [push_down_predicates(c) for c in tree.children]
    tree = Expression(tree.op, children)
    if not isinstance(tree.op, LogicalSelect):
        return tree
    preds = conjuncts(tree.op.predicate)
    child = tree.children[0]
    pushed = _push_into(child, preds)
    if pushed is None:
        return tree
    remaining, new_child = pushed
    new_child = push_down_predicates(new_child)
    rest = make_conj(remaining)
    if rest is None:
        return new_child
    return Expression(LogicalSelect(rest), [new_child])


def _push_into(child: Expression, preds: list):
    """Try to sink conjuncts into ``child``; returns (rest, new_child)."""
    op = child.op
    if isinstance(op, LogicalSelect):
        merged = conjuncts(op.predicate) + preds
        return [], Expression(
            LogicalSelect(make_conj(merged)), [child.children[0]]
        )
    if isinstance(op, LogicalJoin):
        return _push_into_join(child, preds)
    if isinstance(op, LogicalApply):
        outer = child.children[0]
        outer_ids = _tree_output_ids(outer)
        to_outer = [p for p in preds if p.used_columns() <= outer_ids]
        rest = [p for p in preds if not (p.used_columns() <= outer_ids)]
        if not to_outer:
            return None
        new_outer = Expression(
            LogicalSelect(make_conj(to_outer)), [outer]
        )
        return rest, Expression(op, [new_outer, child.children[1]])
    if isinstance(op, LogicalProject):
        computed = {c.id for _e, c in op.projections}
        sinkable = [p for p in preds if not (p.used_columns() & computed)]
        rest = [p for p in preds if p.used_columns() & computed]
        if not sinkable:
            return None
        new_input = Expression(
            LogicalSelect(make_conj(sinkable)), [child.children[0]]
        )
        return rest, Expression(op, [new_input])
    if isinstance(op, LogicalGbAgg):
        group_ids = {c.id for c in op.group_cols}
        sinkable = [p for p in preds if p.used_columns() <= group_ids]
        rest = [p for p in preds if not (p.used_columns() <= group_ids)]
        if not sinkable:
            return None
        new_input = Expression(
            LogicalSelect(make_conj(sinkable)), [child.children[0]]
        )
        return rest, Expression(op, [new_input])
    return None


def _push_into_join(child: Expression, preds: list):
    op: LogicalJoin = child.op
    left, right = child.children
    left_ids = _tree_output_ids(left)
    right_ids = _tree_output_ids(right)
    to_left, to_right, to_cond, rest = [], [], [], []
    for pred in preds:
        used = pred.used_columns()
        if used <= left_ids:
            to_left.append(pred)
        elif used <= right_ids:
            # WHERE predicates on the nullable side of a left join cannot
            # move below the join (NULL-extended rows would escape them).
            if op.kind is JoinKind.LEFT:
                rest.append(pred)
            else:
                to_right.append(pred)
        elif used <= (left_ids | right_ids) and op.kind is JoinKind.INNER:
            to_cond.append(pred)
        else:
            rest.append(pred)
    if not (to_left or to_right or to_cond):
        return None
    if to_left:
        left = Expression(LogicalSelect(make_conj(to_left)), [left])
    if to_right:
        right = Expression(LogicalSelect(make_conj(to_right)), [right])
    condition = op.condition
    if to_cond:
        condition = make_conj(conjuncts(condition) + to_cond)
    return rest, Expression(LogicalJoin(op.kind, condition), [left, right])


# ----------------------------------------------------------------------
# Static partition elimination
# ----------------------------------------------------------------------

def static_partition_elimination(tree: Expression) -> Expression:
    children = [static_partition_elimination(c) for c in tree.children]
    tree = Expression(tree.op, children)
    if not isinstance(tree.op, LogicalSelect):
        return tree
    child = tree.children[0]
    if not isinstance(child.op, LogicalGet):
        return tree
    get: LogicalGet = child.op
    if get.table.partitioning is None:
        return tree
    part_col_pos = get.table.column_index(get.table.partitioning.column)
    part_ref = get.columns[part_col_pos]
    lo = hi = None
    lo_inc = hi_inc = True
    for conj in conjuncts(tree.op.predicate):
        bound = literal_bound(conj, part_ref.id)
        if bound is None:
            continue
        op, value = bound
        if op == "=":
            lo = hi = value
        elif op in (">", ">="):
            if lo is None:
                lo, lo_inc = value, op == ">="
        elif op in ("<", "<="):
            if hi is None:
                hi, hi_inc = value, op == "<="
    if lo is None and hi is None:
        return tree
    from repro.catalog.statistics import axis_value
    import math

    q_lo = axis_value(lo) if lo is not None else None
    q_hi = axis_value(hi) if hi is not None else None
    if q_hi is not None and hi_inc:
        q_hi = math.nextafter(q_hi, math.inf)
    if q_lo is not None and not lo_inc:
        q_lo = math.nextafter(q_lo, math.inf)
    survivors = tuple(
        i for i, part in enumerate(get.table.partitioning.partitions)
        if _part_overlaps(part, q_lo, q_hi)
    )
    if len(survivors) == get.table.num_partitions():
        return tree
    new_get = LogicalGet(
        get.table, get.columns, get.alias, partitions=survivors, dpe=get.dpe
    )
    return Expression(tree.op, [Expression(new_get)])


def _part_overlaps(part, q_lo, q_hi) -> bool:
    from repro.catalog.statistics import axis_value

    p_lo, p_hi = axis_value(part.lo), axis_value(part.hi)
    if q_lo is not None and p_hi <= q_lo:
        return False
    if q_hi is not None and p_lo >= q_hi:
        return False
    return True


# ----------------------------------------------------------------------
# Dynamic partition elimination hints
# ----------------------------------------------------------------------

def attach_dpe_hints(tree: Expression, table_stats: Callable) -> Expression:
    children = [attach_dpe_hints(c, table_stats) for c in tree.children]
    tree = Expression(tree.op, children)
    if not (isinstance(tree.op, LogicalJoin) and tree.op.kind is JoinKind.INNER):
        return tree
    left, right = tree.children
    for fact_idx in (0, 1):
        fact, dim = (left, right) if fact_idx == 0 else (right, left)
        hinted = _try_dpe(tree.op, fact, dim, table_stats)
        if hinted is not None:
            new_children = [hinted, dim] if fact_idx == 0 else [dim, hinted]
            return Expression(tree.op, new_children)
    return tree


def _try_dpe(
    join_op: LogicalJoin, fact: Expression, dim: Expression, table_stats
) -> Optional[Expression]:
    """If ``fact`` scans a partitioned table joined on its partition
    column, attach a DPEHint estimated from the dimension side."""
    from repro.ops.physical import DPEHint

    get_node = fact
    wrappers = []
    while isinstance(get_node.op, LogicalSelect):
        wrappers.append(get_node.op)
        get_node = get_node.children[0]
    if not isinstance(get_node.op, LogicalGet):
        return None
    get: LogicalGet = get_node.op
    if get.table.partitioning is None or get.dpe is not None:
        return None
    part_ref = get.columns[get.table.column_index(get.table.partitioning.column)]
    dim_ids = _tree_output_ids(dim)
    selector: Optional[int] = None
    for conj in conjuncts(join_op.condition):
        if (
            isinstance(conj, Comparison)
            and conj.op == "="
            and isinstance(conj.left, ColRefExpr)
            and isinstance(conj.right, ColRefExpr)
        ):
            a, b = conj.left.ref.id, conj.right.ref.id
            if a == part_ref.id and b in dim_ids:
                selector = b
            elif b == part_ref.id and a in dim_ids:
                selector = a
    if selector is None:
        return None
    n_parts = len(get.partitions) if get.partitions is not None \
        else get.table.num_partitions()
    # Estimate the fraction of fact partitions the dimension's surviving
    # rows will select.  Partition keys (dates) cluster with the fact's
    # range partitioning by construction, so the dimension's filter
    # selectivity is the natural proxy for the partition fraction.
    filtered_rows = _estimate_tree_rows(dim, table_stats)
    unfiltered_rows = _estimate_unfiltered_rows(dim, table_stats)
    if unfiltered_rows <= 0:
        return None
    fraction = filtered_rows / unfiltered_rows
    fraction = min(max(fraction, 1.0 / max(n_parts, 1)), 1.0)
    if fraction >= 0.95:
        return None  # nothing to eliminate
    new_get = LogicalGet(
        get.table, get.columns, get.alias, partitions=get.partitions,
        dpe=DPEHint(selector_col_id=selector, fraction=fraction),
    )
    rebuilt = Expression(new_get)
    for wrapper in reversed(wrappers):
        rebuilt = Expression(wrapper, [rebuilt])
    return rebuilt


def _estimate_unfiltered_rows(tree: Expression, table_stats) -> float:
    """Row estimate of a tree with its top Select/Project spine stripped."""
    node = tree
    while isinstance(node.op, (LogicalSelect, LogicalProject)):
        node = node.children[0]
    return _estimate_tree_rows(node, table_stats)


def _estimate_tree_rows(tree: Expression, table_stats) -> float:
    """Quick row estimate of a logical tree (no Memo required)."""
    op = tree.op
    if isinstance(op, LogicalGet):
        stats = table_stats(op.table.name)
        rows = stats.row_count if stats is not None else 1000.0
        if op.partitions is not None and op.table.partitioning is not None:
            rows *= len(op.partitions) / max(op.table.num_partitions(), 1)
        return rows
    if isinstance(op, LogicalSelect):
        child_rows = _estimate_tree_rows(tree.children[0], table_stats)
        stats = _tree_stats(tree.children[0], table_stats)
        if stats is not None:
            filtered = apply_predicate(stats, op.predicate)
            return filtered.row_count
        return child_rows * DEFAULT_EQ_SELECTIVITY * 10
    if isinstance(op, LogicalJoin):
        left = _estimate_tree_rows(tree.children[0], table_stats)
        right = _estimate_tree_rows(tree.children[1], table_stats)
        return max(left, right)
    if isinstance(op, LogicalGbAgg):
        return max(_estimate_tree_rows(tree.children[0], table_stats) / 10, 1.0)
    if tree.children:
        return _estimate_tree_rows(tree.children[0], table_stats)
    return 1000.0


def _tree_stats(tree: Expression, table_stats) -> Optional[StatsObject]:
    op = tree.op
    if not isinstance(op, LogicalGet):
        return None
    stats = table_stats(op.table.name)
    if stats is None:
        return None

    out = StatsObject(row_count=stats.row_count)
    for i, ref in enumerate(op.columns):
        cs = stats.column(op.table.columns[i].name)
        if cs is not None:
            out.add_column(ref.id, cs)
    return out
