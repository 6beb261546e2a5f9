"""Scalar expression semantics: three-valued logic, keys, substitution."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.types import BOOL, FLOAT, INT, TEXT
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
    WindowFunc,
    conjuncts,
    equi_join_pairs,
    make_conj,
)


@pytest.fixture()
def cols():
    f = ColumnFactory()
    return f.next("a", INT), f.next("b", INT), f.next("c", TEXT)


def ref(col):
    return ColRefExpr(col)


class TestColRef:
    def test_identity_by_id(self):
        a1 = ColRef(1, "x", INT)
        a2 = ColRef(1, "renamed", FLOAT)
        assert a1 == a2
        assert hash(a1) == hash(a2)

    def test_factory_unique_ids(self):
        f = ColumnFactory()
        refs = [f.next("c", INT) for _ in range(10)]
        assert len({r.id for r in refs}) == 10

    def test_factory_register_avoids_collisions(self):
        f = ColumnFactory()
        f.register(ColRef(100, "ext", INT))
        fresh = f.next("new", INT)
        assert fresh.id == 101

    def test_copy_of(self):
        f = ColumnFactory()
        a = f.next("a", INT)
        b = f.copy_of(a)
        assert b.id != a.id and b.name == a.name


class TestComparison:
    def test_basic_ops(self, cols):
        a, b, _ = cols
        env = {a.id: 3, b.id: 5}
        assert Comparison("<", ref(a), ref(b)).evaluate(env) is True
        assert Comparison(">", ref(a), ref(b)).evaluate(env) is False
        assert Comparison("=", ref(a), Literal(3)).evaluate(env) is True
        assert Comparison("<>", ref(a), Literal(3)).evaluate(env) is False

    def test_null_propagation(self, cols):
        a, b, _ = cols
        env = {a.id: None, b.id: 5}
        assert Comparison("=", ref(a), ref(b)).evaluate(env) is None
        assert Comparison("=", ref(a), ref(a)).evaluate(env) is None

    def test_flipped(self, cols):
        a, b, _ = cols
        cmp = Comparison("<", ref(a), ref(b))
        flipped = cmp.flipped()
        assert flipped.op == ">"
        env = {a.id: 1, b.id: 2}
        assert cmp.evaluate(env) == flipped.evaluate(env)

    def test_unknown_op_rejected(self, cols):
        a, _, _ = cols
        with pytest.raises(ValueError):
            Comparison("~~", ref(a), Literal(1))

    def test_key_stability(self, cols):
        a, b, _ = cols
        k1 = Comparison("=", ref(a), ref(b)).key()
        k2 = Comparison("=", ref(a), ref(b)).key()
        assert k1 == k2
        assert Comparison("=", ref(b), ref(a)).key() != k1


class TestBoolThreeValuedLogic:
    T, F, N = Literal(True), Literal(False), Literal(None, BOOL)

    @pytest.mark.parametrize("left,right,expected", [
        (T, T, True), (T, F, False), (F, N, False), (T, N, None), (N, N, None),
    ])
    def test_and_table(self, left, right, expected):
        assert BoolExpr("and", [left, right]).evaluate({}) is expected

    @pytest.mark.parametrize("left,right,expected", [
        (T, F, True), (F, F, False), (F, N, None), (T, N, True), (N, N, None),
    ])
    def test_or_table(self, left, right, expected):
        assert BoolExpr("or", [left, right]).evaluate({}) is expected

    @pytest.mark.parametrize("arg,expected", [(T, False), (F, True), (N, None)])
    def test_not_table(self, arg, expected):
        assert BoolExpr("not", [arg]).evaluate({}) is expected

    def test_not_arity(self):
        with pytest.raises(ValueError):
            BoolExpr("not", [self.T, self.F])

    @given(st.lists(st.sampled_from([True, False, None]), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_demorgan_property(self, values):
        lits = [Literal(v, BOOL) for v in values]
        lhs = BoolExpr("not", [BoolExpr("and", lits)]).evaluate({})
        rhs = BoolExpr(
            "or", [BoolExpr("not", [lit]) for lit in lits]
        ).evaluate({})
        assert lhs is rhs


class TestArith:
    def test_ops(self):
        assert Arith("+", Literal(2), Literal(3)).evaluate({}) == 5
        assert Arith("-", Literal(2), Literal(3)).evaluate({}) == -1
        assert Arith("*", Literal(2), Literal(3)).evaluate({}) == 6
        assert Arith("/", Literal(6), Literal(3)).evaluate({}) == 2

    def test_division_by_zero_is_null(self):
        assert Arith("/", Literal(6), Literal(0)).evaluate({}) is None

    def test_null_propagation(self):
        assert Arith("+", Literal(None, INT), Literal(3)).evaluate({}) is None

    def test_division_dtype_is_float(self):
        assert Arith("/", Literal(6), Literal(3)).dtype is FLOAT

    def test_dtype_of_a_long_chain_reads_each_leaf_at_most_once(self):
        """``b + b + … + b`` is left-deep; reading ``left.dtype`` twice
        per level made one ``.dtype`` cost 2^terms leaf reads."""
        terms = 64
        reads = []

        class Leaf(Literal):
            @property
            def dtype(self):
                reads.append(self)
                # Counted, not timed: 2^64 reads would never finish.
                assert len(reads) <= terms, "exponential dtype walk"
                return self._dtype

        chain = Leaf(1)
        for _ in range(terms - 1):
            chain = Arith("+", chain, Leaf(1))
        assert chain.dtype is INT
        assert reads
        # A text operand on the left defers to the right one, once each.
        del reads[:]
        assert Arith("+", Leaf("x"), Leaf(2)).dtype is INT
        assert len(reads) == 2

    @pytest.mark.parametrize("mode", ["row", "fused"])
    def test_forty_term_sum_runs_through_a_session(self, mode):
        import repro
        from tests.conftest import make_small_db

        db = make_small_db(t1_rows=50, t2_rows=10)
        sql = f"SELECT a, {' + '.join(['b'] * 40)} FROM t1 ORDER BY a, b"
        with repro.connect(db, segments=2, execution_mode=mode) as session:
            rows = session.execute(sql).rows
        assert sorted(rows) == sorted(
            (a, 40 * b) for a, b, _c in db.scan("t1")
        )


class TestPredicates:
    def test_is_null(self, cols):
        a, _, _ = cols
        assert IsNull(ref(a)).evaluate({a.id: None}) is True
        assert IsNull(ref(a)).evaluate({a.id: 1}) is False
        assert IsNull(ref(a), negated=True).evaluate({a.id: 1}) is True

    def test_in_list(self, cols):
        a, _, _ = cols
        p = InList(ref(a), [1, 2, 3])
        assert p.evaluate({a.id: 2}) is True
        assert p.evaluate({a.id: 9}) is False
        assert p.evaluate({a.id: None}) is None
        assert InList(ref(a), [1], negated=True).evaluate({a.id: 2}) is True

    def test_like(self, cols):
        _, _, c = cols
        assert LikeExpr(ref(c), "ab%").evaluate({c.id: "abcdef"}) is True
        assert LikeExpr(ref(c), "ab%").evaluate({c.id: "xabc"}) is False
        assert LikeExpr(ref(c), "a_c").evaluate({c.id: "abc"}) is True
        assert LikeExpr(ref(c), "a%", negated=True).evaluate({c.id: "b"}) is True
        assert LikeExpr(ref(c), "a%").evaluate({c.id: None}) is None

    def test_like_escapes_regex_chars(self, cols):
        _, _, c = cols
        assert LikeExpr(ref(c), "a.c").evaluate({c.id: "abc"}) is False
        assert LikeExpr(ref(c), "a.c").evaluate({c.id: "a.c"}) is True

    def test_case(self, cols):
        a, _, _ = cols
        expr = CaseExpr(
            [(Comparison("<", ref(a), Literal(10)), Literal("small")),
             (Comparison("<", ref(a), Literal(100)), Literal("mid"))],
            Literal("big"),
        )
        assert expr.evaluate({a.id: 5}) == "small"
        assert expr.evaluate({a.id: 50}) == "mid"
        assert expr.evaluate({a.id: 500}) == "big"

    def test_case_null_condition_skips(self, cols):
        a, _, _ = cols
        expr = CaseExpr(
            [(Comparison("<", ref(a), Literal(10)), Literal("yes"))],
            Literal("no"),
        )
        assert expr.evaluate({a.id: None}) == "no"


class TestSubstitution:
    def test_colref_substitute(self, cols):
        a, b, _ = cols
        expr = Comparison("=", ref(a), Literal(1))
        out = expr.substitute({a.id: ref(b)})
        assert out.used_columns() == {b.id}

    def test_nested_substitute(self, cols):
        a, b, c = cols
        expr = BoolExpr("and", [
            Comparison("=", ref(a), ref(b)),
            LikeExpr(ref(c), "x%"),
        ])
        out = expr.substitute({a.id: ref(b)})
        assert a.id not in out.used_columns()

    def test_substitute_preserves_missing(self, cols):
        a, b, _ = cols
        expr = ref(a)
        assert expr.substitute({b.id: ref(a)}) is expr


class TestAggAndWindow:
    def test_agg_dtype(self, cols):
        a, _, _ = cols
        assert AggFunc("count", None).dtype is INT
        assert AggFunc("avg", ref(a)).dtype is FLOAT
        assert AggFunc("max", ref(a)).dtype is INT

    def test_agg_cannot_evaluate(self, cols):
        a, _, _ = cols
        with pytest.raises(TypeError):
            AggFunc("sum", ref(a)).evaluate({a.id: 1})

    def test_unknown_agg_rejected(self, cols):
        a, _, _ = cols
        with pytest.raises(ValueError):
            AggFunc("median", ref(a))

    def test_window_used_columns(self, cols):
        a, b, c = cols
        w = WindowFunc("sum", ref(a), [b], [(c, True)])
        assert w.used_columns() == {a.id, b.id, c.id}


class TestPredicateUtilities:
    def test_conjuncts_flatten(self, cols):
        a, b, _ = cols
        p1 = Comparison("=", ref(a), Literal(1))
        p2 = Comparison("=", ref(b), Literal(2))
        p3 = Comparison(">", ref(a), Literal(0))
        tree = BoolExpr("and", [p1, BoolExpr("and", [p2, p3])])
        assert conjuncts(tree) == [p1, p2, p3]

    def test_conjuncts_none(self):
        assert conjuncts(None) == []

    def test_make_conj_roundtrip(self, cols):
        a, b, _ = cols
        preds = [
            Comparison("=", ref(a), Literal(1)),
            Comparison("=", ref(b), Literal(2)),
        ]
        assert conjuncts(make_conj(preds)) == preds
        assert make_conj([]) is None
        assert make_conj(preds[:1]) is preds[0]

    def test_equi_join_pairs_orientation(self, cols):
        a, b, _ = cols
        # written backwards: right col = left col
        cond = Comparison("=", ref(b), ref(a))
        pairs = equi_join_pairs(
            cond, frozenset({a.id}), frozenset({b.id})
        )
        assert pairs == [(a, b)]

    def test_equi_join_pairs_ignores_non_equi(self, cols):
        a, b, _ = cols
        cond = make_conj([
            Comparison("=", ref(a), ref(b)),
            Comparison("<", ref(a), ref(b)),
            Comparison("=", ref(a), Literal(5)),
        ])
        pairs = equi_join_pairs(cond, frozenset({a.id}), frozenset({b.id}))
        assert len(pairs) == 1
