"""Lexer, parser and translator tests."""

from __future__ import annotations

from datetime import date

import pytest

from repro.errors import BindError, SQLError, UnsupportedError
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
from repro.sql import parse
from repro.sql.ast import (
    EBinary,
    EExists,
    EIn,
    EScalarSubquery,
    EWindow,
    JoinItem,
    JoinType,
    SetOp,
    SubqueryRef,
    TableRef,
)
from repro.sql.lexer import Lexer
from repro.sql.translator import Translator

from tests.conftest import make_small_db


# ----------------------------------------------------------------------
# Lexer
# ----------------------------------------------------------------------

class TestLexer:
    def tokens(self, text):
        return [(t.kind, t.value) for t in Lexer(text).tokens()[:-1]]

    def test_keywords_case_insensitive(self):
        assert self.tokens("SeLeCt FROM") == [("kw", "select"), ("kw", "from")]

    def test_identifiers(self):
        assert self.tokens("foo _bar x2") == [
            ("ident", "foo"), ("ident", "_bar"), ("ident", "x2")
        ]

    def test_numbers(self):
        assert self.tokens("42 3.14") == [("number", 42), ("number", 3.14)]

    def test_strings_with_escapes(self):
        assert self.tokens("'it''s'") == [("string", "it's")]

    def test_symbols(self):
        kinds = self.tokens("<= >= <> != = < >")
        assert [v for _k, v in kinds] == ["<=", ">=", "<>", "<>", "=", "<", ">"]

    def test_comments_skipped(self):
        assert self.tokens("a -- comment\n b") == [
            ("ident", "a"), ("ident", "b")
        ]

    def test_unterminated_string(self):
        with pytest.raises(SQLError):
            Lexer("'oops").tokens()

    def test_bad_character(self):
        with pytest.raises(SQLError):
            Lexer("a # b").tokens()


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

class TestParser:
    def test_simple_select(self):
        stmt = parse("SELECT a, b FROM t WHERE a = 1")
        assert len(stmt.select_items) == 2
        assert isinstance(stmt.from_items[0], TableRef)
        assert isinstance(stmt.where, EBinary)

    def test_aliases(self):
        stmt = parse("SELECT a AS x, b y FROM t AS u")
        assert stmt.select_items[0][1] == "x"
        assert stmt.select_items[1][1] == "y"
        assert stmt.from_items[0].alias == "u"

    def test_star_variants(self):
        stmt = parse("SELECT *, t.* FROM t")
        assert stmt.select_items[0][0].qualifier is None
        assert stmt.select_items[1][0].qualifier == "t"

    def test_explicit_joins(self):
        stmt = parse(
            "SELECT 1 FROM a JOIN b ON a.x = b.x "
            "LEFT JOIN c ON b.y = c.y"
        )
        top = stmt.from_items[0]
        assert isinstance(top, JoinItem) and top.kind is JoinType.LEFT
        assert isinstance(top.left, JoinItem)
        assert top.left.kind is JoinType.INNER

    def test_right_join_parsed(self):
        stmt = parse("SELECT 1 FROM a RIGHT JOIN b ON a.x = b.x")
        assert stmt.from_items[0].kind is JoinType.RIGHT

    def test_implicit_cross_join(self):
        stmt = parse("SELECT 1 FROM a, b, c")
        assert len(stmt.from_items) == 3

    def test_group_having_order_limit(self):
        stmt = parse(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 "
            "ORDER BY a DESC LIMIT 5 OFFSET 2"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0][1] is False
        assert stmt.limit == 5 and stmt.offset == 2

    def test_operator_precedence(self):
        stmt = parse("SELECT 1 FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "or"
        assert stmt.where.right.op == "and"

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT a + b * c FROM t")
        expr = stmt.select_items[0][0]
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_between_like_in(self):
        stmt = parse(
            "SELECT 1 FROM t WHERE a BETWEEN 1 AND 5 AND b LIKE 'x%' "
            "AND c IN (1, 2, 3) AND d NOT IN (4)"
        )
        assert stmt.where is not None

    def test_exists_and_scalar_subqueries(self):
        stmt = parse(
            "SELECT 1 FROM t WHERE EXISTS (SELECT 1 FROM u) "
            "AND a > (SELECT max(x) FROM u)"
        )
        assert isinstance(stmt.where.left, EExists)
        assert isinstance(stmt.where.right.right, EScalarSubquery)

    def test_in_subquery(self):
        stmt = parse("SELECT 1 FROM t WHERE a IN (SELECT x FROM u)")
        assert isinstance(stmt.where, EIn)
        assert stmt.where.subquery is not None

    def test_with_clause(self):
        stmt = parse(
            "WITH v AS (SELECT a FROM t), w AS (SELECT b FROM u) "
            "SELECT 1 FROM v, w"
        )
        assert [name for name, _s in stmt.ctes] == ["v", "w"]

    def test_set_operations(self):
        stmt = parse("SELECT a FROM t UNION ALL SELECT b FROM u EXCEPT SELECT c FROM w")
        assert [op for op, _all, _s in stmt.set_ops] == [SetOp.UNION, SetOp.EXCEPT]
        assert stmt.set_ops[0][1] is True

    def test_window_over(self):
        stmt = parse(
            "SELECT rank() OVER (PARTITION BY a ORDER BY b DESC) FROM t"
        )
        win = stmt.select_items[0][0]
        assert isinstance(win, EWindow)
        assert win.order_by[0][1] is False

    def test_window_required_for_rank(self):
        with pytest.raises(SQLError):
            parse("SELECT rank() FROM t")

    def test_case_expression(self):
        stmt = parse(
            "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t"
        )
        assert stmt.select_items[0][0].whens

    def test_date_literal(self):
        stmt = parse("SELECT 1 FROM t WHERE d = DATE '2001-02-03'")
        assert stmt.where.right.value == date(2001, 2, 3)

    def test_derived_table(self):
        stmt = parse("SELECT x.a FROM (SELECT a FROM t) AS x")
        assert isinstance(stmt.from_items[0], SubqueryRef)

    def test_count_distinct_star(self):
        stmt = parse("SELECT count(*), count(DISTINCT a) FROM t")
        assert stmt.select_items[0][0].star
        assert stmt.select_items[1][0].distinct

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SQLError):
            parse("SELECT 1 FROM t zzz qqq")

    def test_missing_from_keyword_errors(self):
        with pytest.raises(SQLError):
            parse("SELECT a WHERE b = 1 FROM t")


# ----------------------------------------------------------------------
# Translator
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def db():
    return make_small_db()


def translate(db, sql, share_ctes=True):
    return Translator(db, share_ctes=share_ctes).translate_sql(sql)


def ops_in(tree):
    return [type(node.op).__name__ for node in tree.walk()]


class TestTranslator:
    def test_simple_scan_project(self, db):
        q = translate(db, "SELECT a, b FROM t1")
        assert isinstance(q.tree.op, LogicalGet)
        assert [c.name for c in q.output_cols] == ["t1.a", "t1.b"]
        assert q.output_names == ["a", "b"]

    def test_where_becomes_select(self, db):
        q = translate(db, "SELECT a FROM t1 WHERE b > 5")
        assert isinstance(q.tree.op, LogicalSelect)

    def test_join_tree_shape(self, db):
        q = translate(db, "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b")
        names = ops_in(q.tree)
        assert "LogicalJoin" in names

    def test_explicit_join_condition(self, db):
        q = translate(db, "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a")
        join = next(n for n in q.tree.walk() if isinstance(n.op, LogicalJoin))
        assert join.op.condition is not None

    def test_right_join_becomes_left(self, db):
        q = translate(db, "SELECT t1.a FROM t1 RIGHT JOIN t2 ON t1.a = t2.a")
        join = next(n for n in q.tree.walk() if isinstance(n.op, LogicalJoin))
        assert join.op.kind is JoinKind.LEFT
        # sides swapped: t2 is now the outer child
        assert join.children[0].op.alias == "t2"

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(BindError):
            translate(db, "SELECT a FROM t1, t2")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(BindError):
            translate(db, "SELECT zz FROM t1")

    def test_unknown_table_rejected(self, db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            translate(db, "SELECT 1 FROM nope")

    def test_group_by_aggregation(self, db):
        q = translate(db, "SELECT c, count(*), sum(b) FROM t1 GROUP BY c")
        agg = next(n for n in q.tree.walk() if isinstance(n.op, LogicalGbAgg))
        assert len(agg.op.group_cols) == 1
        assert [a.name for a, _c in agg.op.aggs] == ["count", "sum"]

    def test_duplicate_aggregates_shared(self, db):
        q = translate(db, "SELECT sum(b), sum(b) + 1 FROM t1 GROUP BY c")
        agg = next(n for n in q.tree.walk() if isinstance(n.op, LogicalGbAgg))
        assert len(agg.op.aggs) == 1

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t1 WHERE b AND a > 0",
        "SELECT a FROM t1 WHERE b OR a IS NULL",
        "SELECT CASE WHEN b THEN 'y' ELSE 'n' END FROM t1",
        "SELECT a FROM t1 WHERE NOT b",
        "SELECT a FROM t1 WHERE c",
        "SELECT c FROM t1 GROUP BY c HAVING count(*)",
        "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a AND t2.b",
    ])
    def test_non_boolean_truth_operand_rejected(self, db, sql):
        """Where SQL needs a truth value, an INT or TEXT operand is a
        bind error (as in PostgreSQL), not a number read as a truth."""
        with pytest.raises(BindError, match="must be type bool"):
            translate(db, sql)

    @pytest.mark.parametrize("sql", [
        "SELECT a FROM t1 WHERE NULL AND a > 0",
        "SELECT a FROM t1 WHERE TRUE OR b > 0",
        "SELECT CASE WHEN NULL THEN 1 WHEN b > 2 THEN 2 END FROM t1",
        "SELECT a FROM t1 WHERE (b > 1) = TRUE",
        "SELECT f FROM (SELECT b > 5 AS f FROM t1) s WHERE f AND NOT f",
    ])
    def test_boolean_and_null_truth_operands_accepted(self, db, sql):
        translate(db, sql)

    def test_non_grouped_column_rejected(self, db):
        with pytest.raises(BindError):
            translate(db, "SELECT b FROM t1 GROUP BY c")

    def test_having(self, db):
        q = translate(db, "SELECT c FROM t1 GROUP BY c HAVING count(*) > 1")
        assert isinstance(q.tree.op, LogicalSelect)
        assert "having" in q.features

    def test_order_by_without_limit_is_required_sort(self, db):
        q = translate(db, "SELECT a FROM t1 ORDER BY a DESC")
        assert q.required_sort[0][1] is False
        assert "order_by_no_limit" in q.features
        assert not any(isinstance(n.op, LogicalLimit) for n in q.tree.walk())

    def test_limit_becomes_operator(self, db):
        q = translate(db, "SELECT a FROM t1 ORDER BY a LIMIT 3")
        assert isinstance(q.tree.op, LogicalLimit)
        assert q.required_sort == []

    def test_order_by_position_and_alias(self, db):
        q1 = translate(db, "SELECT a, b AS bee FROM t1 ORDER BY 2")
        q2 = translate(db, "SELECT a, b AS bee FROM t1 ORDER BY bee")
        assert q1.required_sort[0][0].id == q2.required_sort[0][0].id

    def test_distinct_becomes_gbagg(self, db):
        q = translate(db, "SELECT DISTINCT c FROM t1")
        assert isinstance(q.tree.op, LogicalGbAgg)
        assert q.tree.op.aggs == ()

    def test_exists_becomes_semi_apply(self, db):
        q = translate(
            db,
            "SELECT a FROM t1 WHERE EXISTS "
            "(SELECT 1 FROM t2 WHERE t2.b = t1.a)",
        )
        apply_node = next(
            n for n in q.tree.walk() if isinstance(n.op, LogicalApply)
        )
        assert apply_node.op.kind is ApplyKind.SEMI
        assert apply_node.op.outer_refs  # correlated
        assert "correlated_subquery" in q.features

    def test_not_exists_becomes_anti_apply(self, db):
        q = translate(
            db,
            "SELECT a FROM t1 WHERE NOT EXISTS "
            "(SELECT 1 FROM t2 WHERE t2.b = t1.a)",
        )
        apply_node = next(
            n for n in q.tree.walk() if isinstance(n.op, LogicalApply)
        )
        assert apply_node.op.kind is ApplyKind.ANTI

    def test_in_subquery_becomes_semi_apply_with_match(self, db):
        q = translate(db, "SELECT a FROM t1 WHERE a IN (SELECT b FROM t2)")
        apply_node = next(
            n for n in q.tree.walk() if isinstance(n.op, LogicalApply)
        )
        assert apply_node.op.kind is ApplyKind.SEMI
        # the match predicate sits inside the inner subtree
        inner = apply_node.children[1]
        assert isinstance(inner.op, LogicalSelect)

    def test_scalar_subquery_becomes_scalar_apply(self, db):
        q = translate(
            db, "SELECT a FROM t1 WHERE b > (SELECT avg(b) FROM t2)"
        )
        apply_node = next(
            n for n in q.tree.walk() if isinstance(n.op, LogicalApply)
        )
        assert apply_node.op.kind is ApplyKind.SCALAR
        assert not apply_node.op.outer_refs  # uncorrelated

    def test_union_all(self, db):
        q = translate(db, "SELECT a FROM t1 UNION ALL SELECT b FROM t2")
        assert isinstance(q.tree.op, LogicalUnionAll)

    def test_union_distinct_dedups(self, db):
        q = translate(db, "SELECT a FROM t1 UNION SELECT b FROM t2")
        assert isinstance(q.tree.op, LogicalGbAgg)

    def test_intersect_becomes_semi_join(self, db):
        q = translate(db, "SELECT a FROM t1 INTERSECT SELECT b FROM t2")
        assert isinstance(q.tree.op, LogicalJoin)
        assert q.tree.op.kind is JoinKind.SEMI

    def test_except_becomes_anti_join(self, db):
        q = translate(db, "SELECT a FROM t1 EXCEPT SELECT b FROM t2")
        assert q.tree.op.kind is JoinKind.ANTI

    def test_set_op_arity_mismatch(self, db):
        with pytest.raises(BindError):
            translate(db, "SELECT a, b FROM t1 UNION ALL SELECT a FROM t2")

    def test_window_function(self, db):
        q = translate(
            db,
            "SELECT a, rank() OVER (PARTITION BY c ORDER BY b) FROM t1",
        )
        assert any(isinstance(n.op, LogicalWindow) for n in q.tree.walk())
        assert "window" in q.features

    def test_distinct_window_specs_stack(self, db):
        q = translate(
            db,
            "SELECT rank() OVER (PARTITION BY c ORDER BY b), "
            "row_number() OVER (PARTITION BY a ORDER BY b) FROM t1",
        )
        windows = [n for n in q.tree.walk() if isinstance(n.op, LogicalWindow)]
        assert len(windows) == 2

    def test_shared_cte_produces_anchor_and_consumers(self, db):
        q = translate(
            db,
            "WITH v AS (SELECT c, count(*) AS n FROM t1 GROUP BY c) "
            "SELECT v1.c FROM v v1, v v2 WHERE v1.n = v2.n",
        )
        assert isinstance(q.tree.op, LogicalCTEAnchor)
        consumers = [
            n for n in q.tree.walk() if isinstance(n.op, LogicalCTEConsumer)
        ]
        assert len(consumers) == 2
        assert len(q.cte_defs) == 1

    def test_single_use_cte_inlined(self, db):
        q = translate(
            db,
            "WITH v AS (SELECT c FROM t1) SELECT c FROM v",
        )
        assert not q.cte_defs
        assert not any(
            isinstance(n.op, LogicalCTEConsumer) for n in q.tree.walk()
        )

    def test_share_ctes_false_inlines_everything(self, db):
        q = translate(
            db,
            "WITH v AS (SELECT c FROM t1) SELECT v1.c FROM v v1, v v2 "
            "WHERE v1.c = v2.c",
            share_ctes=False,
        )
        assert not q.cte_defs
        gets = [n for n in q.tree.walk() if isinstance(n.op, LogicalGet)]
        assert len(gets) == 2  # producer inlined twice with fresh columns
        all_ids = [c.id for g in gets for c in g.op.columns]
        assert len(set(all_ids)) == len(all_ids)

    def test_case_feature_flag(self, db):
        q = translate(
            db, "SELECT CASE WHEN b > 5 THEN 1 ELSE 0 END FROM t1"
        )
        assert "case" in q.features

    def test_select_without_from_unsupported(self, db):
        with pytest.raises(UnsupportedError):
            translate(db, "SELECT 1")

    def test_projection_for_computed_items(self, db):
        q = translate(db, "SELECT a + b FROM t1")
        assert isinstance(q.tree.op, LogicalProject)

    def test_derived_table_binding(self, db):
        q = translate(
            db,
            "SELECT s.total FROM (SELECT c, sum(b) AS total FROM t1 "
            "GROUP BY c) AS s WHERE s.total > 10",
        )
        assert q.output_names == ["total"]
