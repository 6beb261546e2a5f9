"""AST -> logical expression translation (the Query2DXL role of Figure 2).

Produces the logical expression tree that is copied into the Memo,
together with the query-level required properties (output columns, sort
order, singleton distribution) that seed the initial optimization request.

Subqueries are unnested into :class:`~repro.ops.logical.LogicalApply`
operators here; whether an Apply is later decorrelated into a join (Orca)
or executed as a correlated nested loop (the legacy Planner) is the
optimizer's business, not the translator's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.types import BOOL, INT
from repro.errors import BindError, UnsupportedError
from repro.ops.expression import Expression
from repro.ops.logical import (
    ApplyKind,
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
    AggFunc,
    Arith,
    BoolExpr,
    CaseExpr,
    ColRef,
    ColRefExpr,
    ColumnFactory,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    ScalarExpr,
    WindowFunc,
    make_conj,
)
from repro.sql import ast as A
from repro.sql.parser import AGG_FUNCS, WINDOW_ONLY_FUNCS, parse


@dataclass
class CTEDef:
    """A shared CTE whose producer is optimized separately."""

    cte_id: int
    name: str
    tree: Expression
    output_cols: list[ColRef]
    output_names: list[str]
    consumer_count: int = 0


@dataclass
class TranslatedQuery:
    """The result of translating one SQL statement."""

    tree: Expression
    output_cols: list[ColRef]
    output_names: list[str]
    #: Top-level ORDER BY when it is a required property (no LIMIT node).
    required_sort: list[tuple[ColRef, bool]] = field(default_factory=list)
    #: Feature tags for engine-profile support checks (Section 7.3).
    features: set[str] = field(default_factory=set)
    #: Shared CTEs, in dependency order.
    cte_defs: list[CTEDef] = field(default_factory=list)


class _Scope:
    """Name resolution scope: binding name -> column name -> ColRef."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.bindings: dict[str, dict[str, ColRef]] = {}
        self.order: list[str] = []

    def add(self, binding: str, columns: dict[str, ColRef]) -> None:
        if binding in self.bindings:
            raise BindError(f"duplicate table alias {binding!r}")
        self.bindings[binding] = columns
        self.order.append(binding)

    def resolve(self, name: str, qualifier: Optional[str]) -> ColRef:
        scope: Optional[_Scope] = self
        while scope is not None:
            ref = scope._resolve_local(name, qualifier)
            if ref is not None:
                return ref
            scope = scope.parent
        where = f"{qualifier}.{name}" if qualifier else name
        raise BindError(f"unknown column {where!r}")

    def _resolve_local(self, name: str, qualifier: Optional[str]) -> Optional[ColRef]:
        if qualifier is not None:
            columns = self.bindings.get(qualifier)
            if columns is None:
                return None
            return columns.get(name)
        hits = [
            cols[name] for cols in self.bindings.values() if name in cols
        ]
        if len(hits) > 1:
            raise BindError(f"ambiguous column {name!r}")
        return hits[0] if hits else None

    def all_columns(self) -> list[tuple[str, ColRef]]:
        out = []
        for binding in self.order:
            for name, ref in self.bindings[binding].items():
                out.append((name, ref))
        return out

    def binding_columns(self, binding: str) -> list[tuple[str, ColRef]]:
        if binding not in self.bindings:
            raise BindError(f"unknown table alias {binding!r}")
        return list(self.bindings[binding].items())

    def visible_ids(self) -> frozenset[int]:
        ids: set[int] = set()
        scope: Optional[_Scope] = self
        while scope is not None:
            for cols in scope.bindings.values():
                ids.update(ref.id for ref in cols.values())
            scope = scope.parent
        return frozenset(ids)


class Translator:
    """Translates SQL statements against a catalog."""

    def __init__(self, catalog, column_factory: Optional[ColumnFactory] = None,
                 share_ctes: bool = True):
        self.catalog = catalog
        self.factory = column_factory or ColumnFactory()
        self.share_ctes = share_ctes

    def translate_sql(self, sql: str) -> TranslatedQuery:
        return self.translate(parse(sql))

    def translate(self, stmt: A.SelectStmt) -> TranslatedQuery:
        state = _TranslationState(self)
        tree, cols, names, sort = _QueryBuilder(self, state, None).build(stmt)
        shared = [cte for cte in state.cte_defs if cte.consumer_count > 0]
        # Anchors for every shared CTE, innermost = first registered.
        for cte in reversed(shared):
            tree = Expression(LogicalCTEAnchor(cte.cte_id), [tree])
        return TranslatedQuery(
            tree=tree,
            output_cols=cols,
            output_names=names,
            required_sort=sort,
            features=state.features,
            cte_defs=shared,
        )


class _TranslationState:
    """Per-translation shared state (features, CTE registry)."""

    def __init__(self, translator: Translator):
        self.translator = translator
        self.features: set[str] = set()
        self.cte_defs: list[CTEDef] = []
        self._next_cte_id = 0

    def new_cte_id(self) -> int:
        self._next_cte_id += 1
        return self._next_cte_id - 1


def _ast_conjuncts(expr: Optional[A.ExprAST]) -> list[A.ExprAST]:
    if expr is None:
        return []
    if isinstance(expr, A.EBinary) and expr.op == "and":
        return _ast_conjuncts(expr.left) + _ast_conjuncts(expr.right)
    return [expr]


def _count_cte_uses(stmt: A.SelectStmt, names: set[str]) -> Counter:
    """How many TableRefs reference each CTE name, across the whole AST."""
    counts: Counter = Counter()

    def visit_from(item: A.FromItem) -> None:
        if isinstance(item, A.TableRef):
            if item.name in names:
                counts[item.name] += 1
        elif isinstance(item, A.JoinItem):
            visit_from(item.left)
            visit_from(item.right)
        elif isinstance(item, A.SubqueryRef):
            visit_stmt(item.subquery)

    def visit_expr(expr) -> None:
        # A subquery expression's statement, else its child expressions
        # (an IN over a subquery is not looked into further).
        subquery = getattr(expr, "subquery", None)
        if subquery is not None:
            visit_stmt(subquery)
        else:
            for child in _expr_children(expr):
                visit_expr(child)

    def visit_stmt(s: A.SelectStmt) -> None:
        for _name, sub in s.ctes:
            visit_stmt(sub)
        for item in s.from_items:
            visit_from(item)
        for e, _alias in s.select_items:
            visit_expr(e)
        if s.where is not None:
            visit_expr(s.where)
        for e in s.group_by:
            visit_expr(e)
        if s.having is not None:
            visit_expr(s.having)
        for e, _asc in s.order_by:
            visit_expr(e)
        for _op, _all, right in s.set_ops:
            visit_stmt(right)

    visit_stmt(stmt)
    return counts


class _QueryBuilder:
    """Builds the logical tree for one (simple or compound) SELECT."""

    def __init__(
        self,
        translator: Translator,
        state: _TranslationState,
        parent_scope: Optional[_Scope],
    ):
        self.t = translator
        self.state = state
        self.parent_scope = parent_scope
        self.scope = _Scope(parent_scope)
        self.tree: Optional[Expression] = None
        #: CTE name -> CTEDef or ('inline', stmt) available in this scope.
        self.cte_env: dict[str, object] = {}
        if parent_scope is not None and isinstance(parent_scope, _Scope):
            pass

    # ------------------------------------------------------------------
    def build(self, stmt: A.SelectStmt):
        """Returns (tree, output_cols, output_names, required_sort)."""
        self._register_ctes(stmt)
        if stmt.set_ops:
            tree, cols, names, required_sort = self._build_compound(stmt)
        elif stmt.rollup:
            tree, cols, names, required_sort = self._build_rollup(stmt)
        else:
            tree, cols, names, required_sort = self._build_simple(stmt)
        # A LIMIT takes the ORDER BY; above it no sort is required.
        if stmt.limit is not None:
            self.state.features.add("limit")
            tree = Expression(
                LogicalLimit(required_sort, stmt.limit, stmt.offset), [tree]
            )
            required_sort = []
        elif required_sort:
            self.state.features.add("order_by_no_limit")
        return tree, cols, names, required_sort

    # ------------------------------------------------------------------
    # CTEs
    # ------------------------------------------------------------------
    def _register_ctes(self, stmt: A.SelectStmt) -> None:
        if not stmt.ctes:
            return
        self.state.features.add("with")
        names = {name for name, _sub in stmt.ctes}
        uses = _count_cte_uses(stmt, names)
        for name, sub in stmt.ctes:
            share = self.t.share_ctes and uses[name] > 1
            if share:
                builder = _QueryBuilder(self.t, self.state, self.parent_scope)
                builder.cte_env = dict(self.cte_env)
                tree, cols, col_names, _sort = builder.build(sub)
                cte = CTEDef(
                    cte_id=self.state.new_cte_id(),
                    name=name,
                    tree=tree,
                    output_cols=cols,
                    output_names=col_names,
                )
                self.state.cte_defs.append(cte)
                self.cte_env[name] = cte
            else:
                self.cte_env[name] = ("inline", sub)

    # ------------------------------------------------------------------
    # Compound selects (UNION / INTERSECT / EXCEPT)
    # ------------------------------------------------------------------
    def _build_compound(self, stmt: A.SelectStmt):
        head = A.SelectStmt(
            select_items=stmt.select_items,
            distinct=stmt.distinct,
            from_items=stmt.from_items,
            where=stmt.where,
            group_by=stmt.group_by,
            having=stmt.having,
        )
        builder = _QueryBuilder(self.t, self.state, self.parent_scope)
        builder.cte_env = dict(self.cte_env)
        tree, cols, names, _ = builder.build(head)
        for op, all_flag, right_stmt in stmt.set_ops:
            rb = _QueryBuilder(self.t, self.state, self.parent_scope)
            rb.cte_env = dict(self.cte_env)
            r_tree, r_cols, _r_names, _ = rb.build(right_stmt)
            if len(r_cols) != len(cols):
                raise BindError("set operation arity mismatch")
            self.state.features.add(op.value)
            if op is A.SetOp.UNION:
                out_cols = [self.t.factory.copy_of(c) for c in cols]
                tree = Expression(
                    LogicalUnionAll(out_cols, [cols, r_cols]), [tree, r_tree]
                )
                cols = out_cols
                if not all_flag:
                    tree = Expression(
                        LogicalGbAgg(cols, []), [tree]
                    )
            else:
                # INTERSECT / EXCEPT have set semantics: dedup left, then
                # (anti-)semi join on all columns.
                tree = Expression(LogicalGbAgg(cols, []), [tree])
                cond = make_conj(
                    Comparison("=", ColRefExpr(l), ColRefExpr(r))
                    for l, r in zip(cols, r_cols)
                )
                kind = (
                    JoinKind.SEMI if op is A.SetOp.INTERSECT else JoinKind.ANTI
                )
                tree = Expression(LogicalJoin(kind, cond), [tree, r_tree])
        return tree, cols, names, self._compound_sort(stmt, cols, names)

    def _compound_sort(self, stmt, cols, names, other=None):
        """ORDER BY keys that are output positions or names; any other
        key is ``other(expr)``'s column, refused when there is none."""
        out = []
        for expr, asc in stmt.order_by:
            if isinstance(expr, A.ELiteral) and isinstance(expr.value, int):
                out.append((cols[expr.value - 1], asc))
            elif isinstance(expr, A.EColumn) and expr.qualifier is None \
                    and expr.name in names:
                out.append((cols[names.index(expr.name)], asc))
            elif other is not None:
                out.append((other(expr), asc))
            else:
                raise BindError(
                    "compound ORDER BY must use output names or positions"
                )
        return out

    # ------------------------------------------------------------------
    # Simple selects
    # ------------------------------------------------------------------
    def _build_simple(self, stmt: A.SelectStmt):
        self._build_from(stmt)
        self._build_where(stmt.where)
        select_items = self._expand_stars(stmt.select_items)
        agg_ctx = self._build_aggregation(stmt, select_items)
        self._build_having(stmt, agg_ctx)
        window_map = self._build_windows(select_items, agg_ctx)
        cols, names = self._build_projection(select_items, agg_ctx, window_map)
        if stmt.distinct:
            self.state.features.add("distinct")
            self.tree = Expression(LogicalGbAgg(cols, []), [self.tree])
        required_sort = self._resolve_order_by(stmt, select_items, cols, names, agg_ctx)
        return self.tree, cols, names, required_sort

    # ------------------------------------------------------------------
    # ROLLUP
    # ------------------------------------------------------------------
    def _build_rollup(self, stmt: A.SelectStmt):
        """GROUP BY ROLLUP(e1..ek): union the aggregations at every
        prefix of the grouping list, NULL-padding rolled-away columns
        (subtotals and the grand total)."""
        self.state.features.add("rollup")
        group_keys = [_ast_key(g) for g in stmt.group_by]
        level_results = []
        for level in range(len(stmt.group_by), -1, -1):
            rolled_away = set(group_keys[level:])
            items = []
            for expr, alias in stmt.select_items:
                if _ast_key(expr) in rolled_away:
                    items.append((A.ELiteral(None), alias))
                else:
                    items.append((expr, alias))
            level_stmt = A.SelectStmt(
                select_items=items,
                from_items=stmt.from_items,
                where=stmt.where,
                group_by=stmt.group_by[:level],
                having=stmt.having,
            )
            builder = _QueryBuilder(self.t, self.state, self.parent_scope)
            builder.cte_env = dict(self.cte_env)
            tree, cols, names, _sort = builder.build(level_stmt)
            level_results.append((tree, cols, names))
        _tree0, cols0, names = level_results[0]
        out_cols = [self.t.factory.copy_of(c) for c in cols0]
        tree = Expression(
            LogicalUnionAll(
                out_cols, [cols for _t, cols, _n in level_results]
            ),
            [t for t, _c, _n in level_results],
        )
        return tree, out_cols, names, self._rollup_sort(stmt, out_cols, names)

    def _rollup_sort(self, stmt, cols, names):
        def select_item(expr):
            key = _ast_key(expr)
            for (item_expr, _alias), col in zip(stmt.select_items, cols):
                if _ast_key(item_expr) == key:
                    return col
            raise BindError("ROLLUP ORDER BY must reference output columns")

        return self._compound_sort(stmt, cols, names, select_item)

    # ------------------------------------------------------------------
    # FROM
    # ------------------------------------------------------------------
    def _build_from(self, stmt: A.SelectStmt) -> None:
        if not stmt.from_items:
            # SELECT without FROM: a single-row dual via empty projection.
            raise UnsupportedError("SELECT without FROM")
        if len(stmt.from_items) > 1:
            self.state.features.add("implicit_cross_join")
        trees = [self._translate_from_item(item) for item in stmt.from_items]
        tree = trees[0]
        for right in trees[1:]:
            tree = Expression(LogicalJoin(JoinKind.INNER, None), [tree, right])
        self.tree = tree

    def _translate_from_item(self, item: A.FromItem) -> Expression:
        if isinstance(item, A.TableRef):
            return self._translate_table_ref(item)
        if isinstance(item, A.SubqueryRef):
            builder = _QueryBuilder(self.t, self.state, self.parent_scope)
            builder.cte_env = dict(self.cte_env)
            tree, cols, names, _sort = builder.build(item.subquery)
            self.scope.add(item.alias, dict(zip(names, cols)))
            self.state.features.add("derived_table")
            return tree
        if isinstance(item, A.JoinItem):
            return self._translate_join_item(item)
        raise UnsupportedError(f"FROM item {type(item).__name__}")

    def _translate_table_ref(self, ref: A.TableRef) -> Expression:
        binding = ref.binding_name()
        cte = self.cte_env.get(ref.name)
        if cte is not None:
            return self._translate_cte_ref(ref, cte, binding)
        table = self.t.catalog.table(ref.name)
        cols = [
            self.t.factory.next(f"{binding}.{c.name}", c.dtype)
            for c in table.columns
        ]
        self.scope.add(binding, {
            c.name: ref_col for c, ref_col in zip(table.columns, cols)
        })
        return Expression(LogicalGet(table, cols, alias=binding))

    def _translate_cte_ref(self, ref: A.TableRef, cte, binding: str) -> Expression:
        if isinstance(cte, CTEDef):
            cte.consumer_count += 1
            consumer_cols = [self.t.factory.copy_of(c) for c in cte.output_cols]
            self.scope.add(binding, dict(zip(cte.output_names, consumer_cols)))
            return Expression(
                LogicalCTEConsumer(cte.cte_id, consumer_cols, cte.output_cols)
            )
        # Inline: re-translate the CTE body with fresh columns.
        _tag, sub_stmt = cte
        builder = _QueryBuilder(self.t, self.state, self.parent_scope)
        builder.cte_env = dict(self.cte_env)
        tree, cols, names, _sort = builder.build(sub_stmt)
        self.scope.add(binding, dict(zip(names, cols)))
        return tree

    def _translate_join_item(self, item: A.JoinItem) -> Expression:
        if item.kind is A.JoinType.RIGHT:
            # RIGHT OUTER JOIN a ON c == LEFT OUTER JOIN with sides swapped.
            item = A.JoinItem(A.JoinType.LEFT, item.right, item.left, item.on)
        left = self._translate_from_item(item.left)
        right = self._translate_from_item(item.right)
        if item.kind is A.JoinType.CROSS:
            return Expression(LogicalJoin(JoinKind.INNER, None), [left, right])
        condition = None
        if item.on is not None:
            condition = _truth(self._scalar(item.on, self.scope), "JOIN/ON")
            self._tag_join_condition(item.on)
        kind = JoinKind.LEFT if item.kind is A.JoinType.LEFT else JoinKind.INNER
        if kind is JoinKind.LEFT:
            self.state.features.add("outer_join")
        return Expression(LogicalJoin(kind, condition), [left, right])

    def _tag_join_condition(self, on: A.ExprAST) -> None:
        for conj in _ast_conjuncts(on):
            if isinstance(conj, A.EBinary) and conj.op == "or":
                self.state.features.add("disjunctive_join")
            if isinstance(conj, A.EBinary) and conj.op in ("<", "<=", ">", ">=", "<>"):
                self.state.features.add("non_equi_join")
            if isinstance(conj, A.EBetween):
                self.state.features.add("non_equi_join")

    # ------------------------------------------------------------------
    # WHERE (with subquery unnesting)
    # ------------------------------------------------------------------
    def _build_where(self, where: Optional[A.ExprAST]) -> None:
        if where is None:
            return
        plain: list[ScalarExpr] = []
        post_apply: list[ScalarExpr] = []
        for conj in _ast_conjuncts(where):
            handled = self._try_unnest(conj, post_apply)
            if handled:
                continue
            pred = _truth(self._scalar(conj, self.scope), "WHERE")
            (post_apply if _contains_subquery(conj) else plain).append(pred)
        predicate = make_conj(plain)
        if predicate is not None:
            # Plain predicates go below the applies when no apply exists
            # yet; ordering is refined later by predicate pushdown.
            self.tree = Expression(LogicalSelect(predicate), [self.tree])
        post = make_conj(post_apply)
        if post is not None:
            self.tree = Expression(LogicalSelect(post), [self.tree])

    def _try_unnest(self, conj: A.ExprAST, post_apply: list) -> bool:
        """Unnest EXISTS / IN-subquery conjuncts into Apply operators."""
        negated = False
        inner_ast = conj
        if isinstance(inner_ast, A.ENot):
            negated = True
            inner_ast = inner_ast.arg
        if isinstance(inner_ast, A.EExists):
            self._unnest_exists(inner_ast, negated != inner_ast.negated)
            return True
        if isinstance(inner_ast, A.EIn) and inner_ast.subquery is not None:
            self._unnest_in(inner_ast, negated != inner_ast.negated)
            return True
        return False

    def _unnest_exists(self, expr: A.EExists, negated: bool) -> None:
        self.state.features.add("subquery")
        inner_tree, inner_cols = self._translate_subquery(expr.subquery)
        kind = ApplyKind.ANTI if negated else ApplyKind.SEMI
        self._attach_apply(kind, inner_tree)

    def _unnest_in(self, expr: A.EIn, negated: bool) -> None:
        self.state.features.add("subquery")
        inner_tree, inner_cols = self._translate_subquery(expr.subquery)
        if len(inner_cols) != 1:
            raise BindError("IN subquery must return one column")
        arg = self._scalar(expr.arg, self.scope)
        col = ColRefExpr(inner_cols[0])
        match = Comparison("=", arg, col)
        if negated:
            # x NOT IN (...) is not true as soon as one comparison is
            # NULL: a NULL on either side counts as a match for the anti
            # apply (an empty subquery still keeps every outer row).
            match = BoolExpr(BoolExpr.OR, [match, IsNull(col), IsNull(arg)])
        inner_tree = Expression(LogicalSelect(match), [inner_tree])
        kind = ApplyKind.ANTI if negated else ApplyKind.SEMI
        self._attach_apply(kind, inner_tree)

    def _translate_subquery(self, stmt: A.SelectStmt):
        builder = _QueryBuilder(self.t, self.state, self.scope)
        builder.cte_env = dict(self.cte_env)
        tree, cols, _names, _sort = builder.build(stmt)
        return tree, cols

    def _attach_apply(self, kind: ApplyKind, inner_tree: Expression) -> None:
        outer_ids = self.scope.visible_ids()
        used = _tree_used_columns(inner_tree)
        outer_refs = frozenset(used & outer_ids)
        if outer_refs:
            self.state.features.add("correlated_subquery")
        self.tree = Expression(
            LogicalApply(kind, outer_refs), [self.tree, inner_tree]
        )

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _build_aggregation(self, stmt: A.SelectStmt, select_items):
        """Build the GbAgg when grouping/aggregates are present.

        Returns an 'agg context': dict with 'group_map' (AST repr of
        group-by expr -> ColRef), 'aggs' (AggFunc key -> ColRef) or None.
        """
        has_aggs = any(
            _contains_agg(expr) for expr, _a in select_items
        ) or (stmt.having is not None and _contains_agg(stmt.having))
        if not stmt.group_by and not has_aggs:
            return None
        group_cols: list[ColRef] = []
        group_map: dict[str, ColRef] = {}
        pre_projections: list[tuple[ScalarExpr, ColRef]] = []
        for gexpr in stmt.group_by:
            scalar = self._scalar(gexpr, self.scope)
            if isinstance(scalar, ColRefExpr):
                col = scalar.ref
            else:
                col = self.t.factory.next("grp", scalar.dtype)
                pre_projections.append((scalar, col))
            group_cols.append(col)
            group_map[_ast_key(gexpr)] = col
        if pre_projections:
            self.tree = Expression(LogicalProject(pre_projections), [self.tree])
        agg_ctx = {
            "group_map": group_map,
            "group_cols": group_cols,
            "aggs": {},
            "agg_list": [],
        }
        # Collect aggregates from SELECT items and HAVING.
        for expr, _alias in select_items:
            self._collect_aggs(expr, agg_ctx)
        if stmt.having is not None:
            self.state.features.add("having")
            self._collect_aggs(stmt.having, agg_ctx)
        if not group_cols:
            self.state.features.add("scalar_agg")
        self.tree = Expression(
            LogicalGbAgg(group_cols, agg_ctx["agg_list"]), [self.tree]
        )
        return agg_ctx

    def _collect_aggs(self, expr: A.ExprAST, agg_ctx) -> None:
        """Register every aggregate call found in ``expr``, a window's
        argument, PARTITION BY and ORDER BY included."""
        if isinstance(expr, A.EFunc) and expr.name in AGG_FUNCS:
            self._register_agg(expr, agg_ctx)
            return
        for child in _expr_children(expr):
            self._collect_aggs(child, agg_ctx)

    def _register_agg(self, expr: A.EFunc, agg_ctx) -> ColRef:
        func = self._bind_call(expr)
        key = func.key()
        if key in agg_ctx["aggs"]:
            return agg_ctx["aggs"][key]
        col = self.t.factory.next(expr.name, func.dtype)
        agg_ctx["aggs"][key] = col
        agg_ctx["agg_list"].append((func, col))
        return col

    def _bind_call(self, call, agg_ctx=None) -> ScalarExpr:
        """The one binder of an aggregate or window call: an aggregate
        ``EFunc`` becomes its :class:`AggFunc`, its argument read below
        the GbAgg; an ``EWindow`` its :class:`WindowFunc`, what it reads
        translated above the GbAgg of ``agg_ctx``, if any.  SQL's call
        rules, which sqlite applies too: a window call has no DISTINCT;
        rank, dense_rank and row_number take no argument; an aggregate
        takes exactly one, where ``*`` (or none) is count's alone."""
        window = call if isinstance(call, A.EWindow) else None
        func = call if window is None else call.func
        name = func.name

        def scalar(expr: A.ExprAST) -> ScalarExpr:
            if window is not None and agg_ctx is not None:
                return self._scalar_post_agg(expr, agg_ctx)
            return self._scalar(expr, self.scope)

        if name not in AGG_FUNCS and name not in WINDOW_ONLY_FUNCS:
            raise UnsupportedError(f"function {name}")
        if window is not None and func.distinct:
            raise BindError(f"DISTINCT is not supported in window {name}")
        if name in WINDOW_ONLY_FUNCS:
            if func.args or func.star:
                raise BindError(f"{name} takes no argument")
            arg = None
        elif func.star:
            if name != "count" or func.distinct:
                raise BindError("only count(*) takes *")
            arg = None
        elif name == "count" and not func.args and not func.distinct:
            arg = None  # count() is count(*), as in sqlite
        elif len(func.args) != 1:
            raise BindError(f"{name} takes one argument")
        else:
            arg = scalar(func.args[0])
        if window is None:
            return AggFunc(name, arg, distinct=func.distinct)

        def column(expr: A.ExprAST) -> ColRef:
            key = scalar(expr)
            if not isinstance(key, ColRefExpr):
                raise UnsupportedError(
                    "window PARTITION BY / ORDER BY must be plain columns"
                )
            return key.ref

        return WindowFunc(
            name, arg, [column(p) for p in window.partition_by],
            [(column(o), asc) for o, asc in window.order_by],
        )

    def _build_having(self, stmt: A.SelectStmt, agg_ctx) -> None:
        if stmt.having is None:
            return
        predicate = _truth(self._scalar_post_agg(stmt.having, agg_ctx), "HAVING")
        self.tree = Expression(LogicalSelect(predicate), [self.tree])

    # ------------------------------------------------------------------
    # Window functions
    # ------------------------------------------------------------------
    def _build_windows(self, select_items, agg_ctx):
        """One LogicalWindow per distinct OVER spec; returns AST-key map."""
        window_map: dict[str, ColRef] = {}
        by_spec: dict[tuple, list[tuple[A.EWindow, ColRef]]] = {}
        for expr, _alias in select_items:
            for win in _find_windows(expr):
                key = _ast_key(win)
                if key in window_map:
                    continue
                col = self.t.factory.next(win.func.name, INT)
                window_map[key] = col
                partition = tuple(_ast_key(p) for p in win.partition_by)
                order = tuple((_ast_key(o), asc) for o, asc in win.order_by)
                by_spec.setdefault((partition, order), []).append((win, col))
        if not window_map:
            return window_map
        self.state.features.add("window")
        for wins in by_spec.values():
            funcs = [(self._bind_call(win, agg_ctx), col) for win, col in wins]
            self.tree = Expression(LogicalWindow(funcs), [self.tree])
        return window_map

    # ------------------------------------------------------------------
    # SELECT list
    # ------------------------------------------------------------------
    def _expand_stars(self, items):
        out = []
        for expr, alias in items:
            if isinstance(expr, A.EStar):
                if expr.qualifier:
                    pairs = self.scope.binding_columns(expr.qualifier)
                else:
                    pairs = self.scope.all_columns()
                for name, ref in pairs:
                    out.append((A.EColumn(name), name))
            else:
                out.append((expr, alias))
        return out

    def _build_projection(self, select_items, agg_ctx, window_map):
        cols: list[ColRef] = []
        names: list[str] = []
        projections: list[tuple[ScalarExpr, ColRef]] = []
        for expr, alias in select_items:
            scalar = self._translate_select_item(expr, agg_ctx, window_map)
            if isinstance(scalar, ColRefExpr):
                col = scalar.ref
            else:
                name = alias or "col"
                col = self.t.factory.next(name, scalar.dtype)
                projections.append((scalar, col))
            cols.append(col)
            names.append(alias or _default_name(expr, col))
        if projections:
            self.tree = Expression(LogicalProject(projections), [self.tree])
        return cols, names

    def _translate_select_item(self, expr, agg_ctx, window_map) -> ScalarExpr:
        key = _ast_key(expr)
        if key in window_map:
            return ColRefExpr(window_map[key])
        if agg_ctx is not None:
            return self._scalar_post_agg(expr, agg_ctx, window_map)
        return self._scalar_with_windows(expr, window_map)

    def _scalar_with_windows(self, expr, window_map) -> ScalarExpr:
        key = _ast_key(expr)
        if key in window_map:
            return ColRefExpr(window_map[key])
        if isinstance(expr, A.EWindow):
            raise BindError("window expression not collected")
        return self._scalar_dispatch(
            expr, self.scope,
            recurse=lambda e: self._scalar_with_windows(e, window_map),
        )

    # ------------------------------------------------------------------
    # ORDER BY
    # ------------------------------------------------------------------
    def _resolve_order_by(self, stmt, select_items, cols, names, agg_ctx):
        out: list[tuple[ColRef, bool]] = []
        for expr, asc in stmt.order_by:
            if isinstance(expr, A.ELiteral) and isinstance(expr.value, int):
                out.append((cols[expr.value - 1], asc))
                continue
            if isinstance(expr, A.EColumn) and expr.qualifier is None \
                    and expr.name in names:
                out.append((cols[names.index(expr.name)], asc))
                continue
            key = _ast_key(expr)
            matched = None
            for (item_expr, _alias), col in zip(select_items, cols):
                if _ast_key(item_expr) == key:
                    matched = col
                    break
            if matched is not None:
                out.append((matched, asc))
                continue
            scalar = (
                self._scalar_post_agg(expr, agg_ctx)
                if agg_ctx is not None
                else self._scalar(expr, self.scope)
            )
            if isinstance(scalar, ColRefExpr):
                out.append((scalar.ref, asc))
            else:
                col = self.t.factory.next("ord", scalar.dtype)
                self.tree = Expression(
                    LogicalProject([(scalar, col)]), [self.tree]
                )
                out.append((col, asc))
        return out

    # ------------------------------------------------------------------
    # Scalar translation
    # ------------------------------------------------------------------
    def _scalar(self, expr: A.ExprAST, scope: _Scope) -> ScalarExpr:
        return self._scalar_dispatch(
            expr, scope, recurse=lambda e: self._scalar(e, scope)
        )

    def _scalar_post_agg(self, expr, agg_ctx, window_map=None) -> ScalarExpr:
        """Translate an expression above a GbAgg: references resolve to
        group-by columns or aggregate outputs."""
        if window_map:
            key = _ast_key(expr)
            if key in window_map:
                return ColRefExpr(window_map[key])
        gkey = _ast_key(expr)
        if gkey in agg_ctx["group_map"]:
            return ColRefExpr(agg_ctx["group_map"][gkey])
        if isinstance(expr, A.EFunc) and expr.name in AGG_FUNCS:
            col = agg_ctx["aggs"].get(self._bind_call(expr).key())
            if col is None:
                raise BindError(f"aggregate {expr.name} not collected")
            return ColRefExpr(col)
        if isinstance(expr, A.EColumn):
            ref = self.scope.resolve(expr.name, expr.qualifier)
            if ref in agg_ctx["group_cols"]:
                return ColRefExpr(ref)
            raise BindError(
                f"column {expr!r} must appear in GROUP BY or an aggregate"
            )
        return self._scalar_dispatch(
            expr, self.scope,
            recurse=lambda e: self._scalar_post_agg(e, agg_ctx, window_map),
        )

    def _scalar_dispatch(self, expr, scope, recurse) -> ScalarExpr:
        if isinstance(expr, A.EColumn):
            return ColRefExpr(scope.resolve(expr.name, expr.qualifier))
        if isinstance(expr, A.ELiteral):
            return Literal(expr.value)
        if isinstance(expr, A.EBinary):
            if expr.op in ("and", "or"):
                return BoolExpr(expr.op, [
                    _truth(recurse(side), expr.op.upper())
                    for side in (expr.left, expr.right)
                ])
            if expr.op in ("+", "-", "*", "/"):
                return Arith(expr.op, recurse(expr.left), recurse(expr.right))
            return Comparison(expr.op, recurse(expr.left), recurse(expr.right))
        if isinstance(expr, A.ENot):
            return BoolExpr(BoolExpr.NOT, [_truth(recurse(expr.arg), "NOT")])
        if isinstance(expr, A.ENegate):
            arg = recurse(expr.arg)
            if isinstance(arg, Literal) and arg.value is not None:
                return Literal(-arg.value)
            return Arith("-", Literal(0), arg)
        if isinstance(expr, A.EIsNull):
            return IsNull(recurse(expr.arg), expr.negated)
        if isinstance(expr, A.EBetween):
            arg = recurse(expr.arg)
            between = BoolExpr(
                BoolExpr.AND,
                [
                    Comparison(">=", arg, recurse(expr.lo)),
                    Comparison("<=", arg, recurse(expr.hi)),
                ],
            )
            if expr.negated:
                return BoolExpr(BoolExpr.NOT, [between])
            return between
        if isinstance(expr, A.ELike):
            return LikeExpr(recurse(expr.arg), expr.pattern, expr.negated)
        if isinstance(expr, A.EIn):
            if expr.subquery is not None:
                raise UnsupportedError("IN subquery outside WHERE conjunct")
            return InList(recurse(expr.arg), expr.values or [], expr.negated)
        if isinstance(expr, A.ECase):
            self.state.features.add("case")
            whens = [
                (_truth(recurse(c), "CASE/WHEN"), recurse(r)) for c, r in expr.whens
            ]
            else_ = recurse(expr.else_) if expr.else_ is not None else None
            return CaseExpr(whens, else_)
        if isinstance(expr, A.EScalarSubquery):
            return self._translate_scalar_subquery(expr)
        if isinstance(expr, A.EFunc):
            if expr.name in AGG_FUNCS:
                raise BindError(
                    f"aggregate {expr.name} not allowed in this context"
                )
            raise UnsupportedError(f"function {expr.name}")
        if isinstance(expr, A.EWindow):
            raise UnsupportedError("window function in this context")
        raise UnsupportedError(f"expression {type(expr).__name__}")

    def _translate_scalar_subquery(self, expr: A.EScalarSubquery) -> ScalarExpr:
        self.state.features.add("subquery")
        inner_tree, inner_cols = self._translate_subquery(expr.subquery)
        if len(inner_cols) != 1:
            raise BindError("scalar subquery must return one column")
        self._attach_apply(ApplyKind.SCALAR, inner_tree)
        return ColRefExpr(inner_cols[0])


def _truth(expr: ScalarExpr, context: str) -> ScalarExpr:
    """``expr`` where SQL needs a truth value (WHERE, HAVING, JOIN ... ON,
    AND / OR / NOT, CASE WHEN): a BOOL expression or the NULL literal,
    as in PostgreSQL.  Anything else is a :class:`BindError`, never a
    number silently read as true or false."""
    if expr.dtype is BOOL or (type(expr) is Literal and expr.value is None):
        return expr
    raise BindError(
        f"argument of {context} must be type bool, not type {expr.dtype}"
    )


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------

def _expr_children(expr: A.ExprAST) -> list[A.ExprAST]:
    if isinstance(expr, A.EBinary):
        return [expr.left, expr.right]
    if isinstance(expr, (A.ENot, A.ENegate, A.EIsNull, A.ELike)):
        return [expr.arg]
    if isinstance(expr, A.EBetween):
        return [expr.arg, expr.lo, expr.hi]
    if isinstance(expr, A.ECase):
        out = []
        for c, r in expr.whens:
            out.extend((c, r))
        if expr.else_ is not None:
            out.append(expr.else_)
        return out
    if isinstance(expr, A.EFunc):
        return list(expr.args)
    if isinstance(expr, A.EIn):
        return [expr.arg]
    if isinstance(expr, A.EWindow):
        # What a window reads; its own call is bound by _bind_call.
        return list(expr.func.args) + list(expr.partition_by) + [
            o for o, _asc in expr.order_by
        ]
    return []


def _contains_subquery(expr: A.ExprAST) -> bool:
    if isinstance(expr, (A.EExists, A.EScalarSubquery)) or (
        isinstance(expr, A.EIn) and expr.subquery is not None
    ):
        return True
    if isinstance(expr, A.EWindow):
        return False  # not looked into
    return any(_contains_subquery(c) for c in _expr_children(expr))


def _contains_agg(expr: A.ExprAST) -> bool:
    if isinstance(expr, A.EFunc) and expr.name in AGG_FUNCS:
        return True
    return any(_contains_agg(c) for c in _expr_children(expr))


def _find_windows(expr: A.ExprAST) -> list[A.EWindow]:
    if isinstance(expr, A.EWindow):
        return [expr]
    out = []
    for child in _expr_children(expr):
        out.extend(_find_windows(child))
    return out


def _ast_key(expr: A.ExprAST) -> str:
    """Stable textual key of an AST expression (for matching group-by
    expressions against SELECT items, window dedup, etc.)."""
    if isinstance(expr, A.EColumn):
        return f"col:{expr.qualifier or ''}.{expr.name}"
    if isinstance(expr, A.ELiteral):
        return f"lit:{expr.value!r}"
    if isinstance(expr, A.EBinary):
        return f"({_ast_key(expr.left)}{expr.op}{_ast_key(expr.right)})"
    if isinstance(expr, A.ENot):
        return f"not({_ast_key(expr.arg)})"
    if isinstance(expr, A.ENegate):
        return f"neg({_ast_key(expr.arg)})"
    if isinstance(expr, A.EFunc):
        inner = ",".join(_ast_key(a) for a in expr.args)
        star = "*" if expr.star else ""
        distinct = "D" if expr.distinct else ""
        return f"{expr.name}{distinct}({star}{inner})"
    if isinstance(expr, A.EWindow):
        partition = ",".join(_ast_key(p) for p in expr.partition_by)
        order = ",".join(f"{_ast_key(o)}:{asc}" for o, asc in expr.order_by)
        return f"win[{_ast_key(expr.func)}|{partition}|{order}]"
    if isinstance(expr, A.ECase):
        whens = ";".join(
            f"{_ast_key(c)}->{_ast_key(r)}" for c, r in expr.whens
        )
        else_ = _ast_key(expr.else_) if expr.else_ is not None else ""
        return f"case[{whens}|{else_}]"
    if isinstance(expr, A.EIsNull):
        return f"isnull{expr.negated}({_ast_key(expr.arg)})"
    if isinstance(expr, A.EBetween):
        return (
            f"between{expr.negated}({_ast_key(expr.arg)},"
            f"{_ast_key(expr.lo)},{_ast_key(expr.hi)})"
        )
    if isinstance(expr, A.ELike):
        return f"like{expr.negated}({_ast_key(expr.arg)},{expr.pattern})"
    if isinstance(expr, A.EIn):
        return f"in{expr.negated}({_ast_key(expr.arg)},{expr.values!r})"
    return f"other:{id(expr)}"


def _default_name(expr: A.ExprAST, col: ColRef) -> str:
    if isinstance(expr, A.EColumn):
        return expr.name
    if isinstance(expr, A.EFunc):
        return expr.name
    if isinstance(expr, A.EWindow):
        return expr.func.name
    return col.name


def _tree_used_columns(tree: Expression) -> set[int]:
    """All column ids referenced by operators anywhere in a tree."""
    used: set[int] = set()
    for node in tree.walk():
        used |= node.op.used_columns()
        from repro.ops.logical import LogicalGbAgg as _G
        if isinstance(node.op, _G):
            used |= {c.id for c in node.op.group_cols}
        if isinstance(node.op, LogicalLimit):
            used |= {c.id for c, _asc in node.op.sort_keys}
    return used
