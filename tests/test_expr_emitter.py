"""The expression emitter, judged by sqlite.

``repro.engine.emit.Emitter`` is the one place a scalar expression gets
its value: the fused stage loops inline its output, the nested-loops
join inlines it into its pair loop, and ``compiled_row`` wraps it in a
lambda.  Three things are pinned here:

- a differential property over random expression trees (all nine kinds,
  NULL-bearing rows, int / float / str / bool columns, zero divisors,
  a correlated parameter), each rendered back to SQL and evaluated by
  ``SELECT <expr>`` in an in-memory sqlite over the same rows: value
  mode agrees with sqlite's value, truth mode with sqlite's ``CASE WHEN
  <expr>``, through every door the engine uses;
- the count the "no Python call per row" claim rests on: ``call``
  events made *from* generated code while a plan runs in fused mode,
  which must be zero whatever the table size;
- generated source spells no constant but NULL, so neither code memo
  grows when a cached statement is re-bound.
"""

from __future__ import annotations

import gc
import random
import re
import sqlite3
import sys
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog import Column, Database, FLOAT, INT, TEXT, Table
from repro.catalog.types import BOOL
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor, emit, executor, fused
from repro.engine.emit import Emitter, Layout, compiled_row
from repro.engine.executor import SEGMENTED
from repro.engine.parallel import ChainSpec, _compile_spec
from repro.ops import physical as ph
from repro.ops.logical import AggStage, JoinKind
from repro.ops.scalar import (
    AggFunc,
    Arith,
    BoolExpr,
    CaseExpr,
    ColRef,
    ColRefExpr,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    ScalarExpr,
)
from repro.optimizer import Orca

from tests.conftest import make_small_db
from tests.helpers import plan_operators
from tests.test_sqlite_oracle import load_oracle

# ----------------------------------------------------------------------
# Random expression trees
# ----------------------------------------------------------------------

#: The row an expression sees: a join key and four typed columns from
#: each side; column 9 is in no row (a correlated parameter).
OUTER = [ColRef(0, "ok", INT), ColRef(1, "oi", INT), ColRef(2, "of", FLOAT),
         ColRef(3, "os", TEXT), ColRef(4, "ob", BOOL)]
INNER = [ColRef(5, "ik", INT), ColRef(6, "ii", INT), ColRef(7, "if", FLOAT),
         ColRef(8, "is", TEXT), ColRef(10, "ib", BOOL)]
PARAM = ColRef(9, "p", INT)
COLS = OUTER + INNER
INDEX = {c.id: i for i, c in enumerate(COLS)}
N_OUTER = len(OUTER)
#: The same row held as a probe row and a build row, not yet joined.
SPLIT = (("_row", N_OUTER), ("_cand", None))
OUT = ColRef(20, "out", INT)


_NUM_LEAVES = st.one_of(
    st.sampled_from([ColRefExpr(c) for c in COLS if c.dtype is not TEXT]
                    + [ColRefExpr(PARAM)]),
    st.sampled_from([0, 1, 2, -3, 50, 0.0, 0.5, 50.0, True, False, None])
    .map(Literal),
)
_TXT_LEAVES = st.one_of(
    st.sampled_from([ColRefExpr(c) for c in COLS if c.dtype is TEXT]),
    st.sampled_from(["", "x", "xy", "red", None]).map(Literal),
)
_BOOL_LEAVES = st.one_of(
    st.sampled_from([ColRefExpr(c) for c in COLS if c.dtype is BOOL]),
    st.sampled_from([True, False, None]).map(lambda v: Literal(v, BOOL)),
)
_IN_VALUES = st.lists(
    st.sampled_from([0, 1, 50, 0.5, "x", "red", True]), min_size=1, max_size=3
).map(tuple)


@st.composite
def exprs(draw, family: str = "any", depth: int = 3):
    """A random tree the SQL translator admits and that cannot raise:
    ordering and arithmetic stay inside one type family (``num``
    includes bool, as Python does), AND / OR / NOT operands and CASE
    conditions are boolean, LIKE reads text, and ``=`` / ``<>`` / IN
    mix freely."""
    if family == "any":
        family = draw(st.sampled_from(["num", "txt", "bool"]))
    if depth == 0 or (family != "bool" and draw(st.integers(0, 2)) == 0):
        return draw(
            {"num": _NUM_LEAVES, "txt": _TXT_LEAVES, "bool": _BOOL_LEAVES}[family]
        )

    def sub(fam="any"):
        return draw(exprs(fam, depth - 1))

    if family == "bool":
        kind = draw(st.sampled_from(
            ["cmp", "eq", "and", "or", "not", "isnull", "in", "like", "case"]
        ))
        if kind == "cmp":
            fam = draw(st.sampled_from(["num", "txt"]))
            op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
            return Comparison(op, sub(fam), sub(fam))
        if kind == "eq":
            return Comparison(draw(st.sampled_from(["=", "<>"])), sub(), sub())
        if kind in ("and", "or"):
            n = draw(st.integers(1, 3))
            return BoolExpr(kind, [sub("bool") for _ in range(n)])
        if kind == "not":
            return BoolExpr("not", [sub("bool")])
        if kind == "isnull":
            return IsNull(sub(), draw(st.booleans()))
        if kind == "in":
            return InList(sub(), draw(_IN_VALUES), draw(st.booleans()))
        if kind == "like":
            pattern = draw(st.sampled_from(["x%", "%e_", "_", "%", "5%"]))
            return LikeExpr(sub("txt"), pattern, draw(st.booleans()))
    else:
        kind = draw(st.sampled_from(
            ["case"] + (["arith", "bool"] if family == "num" else [])
        ))
        if kind == "arith":
            op = draw(st.sampled_from(["+", "-", "*", "/"]))
            return Arith(op, sub("num"), sub("num"))
        if kind == "bool":
            return sub("bool")
    whens = [(sub("bool"), sub(family)) for _ in range(draw(st.integers(1, 2)))]
    return CaseExpr(whens, draw(st.one_of(st.none(), exprs(family, depth - 1))))


def _cell(dtype):
    values = {
        INT: [0, 1, 2, -3, 50, 51],
        FLOAT: [0.0, 0.5, 49.5, 50.0, -1.25],
        TEXT: ["", "x", "xy", "red", "5"],
        BOOL: [True, False],
    }[dtype]
    return st.one_of(st.none(), st.sampled_from(values))


ROWS = st.lists(
    st.tuples(*[st.just(1) if c.name.endswith("k") else _cell(c.dtype)
                for c in COLS]),
    min_size=1, max_size=6,
)
PARAMS = st.one_of(st.none(), st.sampled_from([0, 1, 50])).map(
    lambda v: {PARAM.id: v}
)


# ----------------------------------------------------------------------
# The judge: sqlite
# ----------------------------------------------------------------------

ORACLE = load_oracle()


def to_sql(expr: ScalarExpr) -> str:
    """The SQL text of ``expr`` for sqlite, column ``c<id>`` per column.
    ``/`` is true division here (``Arith.dtype`` is FLOAT), so its
    dividend is cast to REAL."""
    t = type(expr)
    if t is ColRefExpr:
        return f"c{expr.ref.id}"
    if t is Literal:
        return sql_literal(expr.value)
    if t is Comparison:
        return f"({to_sql(expr.left)} {expr.op} {to_sql(expr.right)})"
    if t is Arith:
        left = to_sql(expr.left)
        if expr.op == "/":
            left = f"CAST({left} AS REAL)"
        return f"({left} {expr.op} {to_sql(expr.right)})"
    if t is BoolExpr:
        if expr.op == "not":
            return f"(NOT {to_sql(expr.children[0])})"
        sep = f" {expr.op.upper()} "
        return "(" + sep.join(to_sql(c) for c in expr.children) + ")"
    neg = "NOT " if getattr(expr, "negated", False) else ""
    if t is IsNull:
        return f"({to_sql(expr.arg)} IS {neg}NULL)"
    if t is InList:
        values = ", ".join(sql_literal(v) for v in expr.values)
        return f"({to_sql(expr.arg)} {neg}IN ({values}))"
    if t is LikeExpr:
        return f"({to_sql(expr.arg)} {neg}LIKE {sql_literal(expr.pattern)})"
    if t is CaseExpr:
        arms = " ".join(
            f"WHEN {to_sql(c)} THEN {to_sql(r)}" for c, r in expr.whens
        )
        return f"(CASE {arms} ELSE {to_sql(expr.else_)} END)"
    raise TypeError(f"no SQL for {t.__name__}")


def sql_literal(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def truth_sql(expr: ScalarExpr) -> str:
    """1 where sqlite's WHERE would keep the row, else 0."""
    return f"CASE WHEN {to_sql(expr)} THEN 1 ELSE 0 END"


def judge(columns: list[str], rows, params) -> list[tuple]:
    """``SELECT <columns>`` in a fresh in-memory sqlite, one result row
    per ``rows`` row, with the correlated parameter as one more column.
    LIKE is case-sensitive, as in PostgreSQL and the engine."""
    names = [f"c{c.id}" for c in COLS + [PARAM]]
    with closing(sqlite3.connect(":memory:")) as con:
        con.execute("PRAGMA case_sensitive_like = ON")
        con.execute(f"CREATE TABLE t ({', '.join(names)})")
        con.executemany(
            f"INSERT INTO t VALUES ({', '.join('?' * len(names))})",
            [tuple(row) + (params[PARAM.id],) for row in rows],
        )
        return con.execute(
            f"SELECT {', '.join(columns)} FROM t ORDER BY rowid"
        ).fetchall()


def agrees(got, want) -> bool:
    """The oracle's normalization: bool -> int, floats to ``REL_TOL``."""
    return ORACLE._close(ORACLE._norm(got), want)


def load(em: Emitter, body: str):
    src = "\n".join(["def _make(_B):"] + em.unpack() + [
        f"    return lambda _r, _row, _cand, _params: {body}", "",
    ])
    namespace: dict = {}
    exec(src, namespace)  # noqa: S102
    return namespace["_make"](em.bound)


def stage_of(ops, inner: bool):
    """One compiled stage over the test layout, through the same door a
    morsel worker uses."""
    spec = ChainSpec(list(ops), OUTER if inner else COLS, SEGMENTED,
                     [(0, INNER, SEGMENTED)] if inner else [])
    (stage,) = _compile_spec(spec).stages
    return stage


@settings(max_examples=150, deadline=None)
@given(expr=exprs(), other=exprs("bool"), rows=ROWS, params=PARAMS)
def test_generated_source_equals_sqlite(expr, other, rows, params):
    want = [
        (v, t == 1)
        for v, t in judge([to_sql(expr), truth_sql(other)], rows, params)
    ]
    values = [v for v, _t in want]
    truths = [t for _v, t in want]

    # The emitter itself, joined layout and split layout, both modes.
    for layout in (Layout(INDEX), Layout(INDEX, SPLIT)):
        em = Emitter()
        value = load(em, em.value(expr, layout))
        em = Emitter()
        truth = load(em, em.truth(other, layout))
        for row, (v, t) in zip(rows, want):
            args = (row, row[:N_OUTER], row[N_OUTER:], params)
            assert agrees(value(*args), v)
            assert bool(truth(*args)) is t

    # compiled_row: what the index scan calls per fetched row.
    fn = compiled_row(expr, INDEX)
    assert all(agrees(fn(row, params), v) for row, v in zip(rows, values))

    # A fused stage over the joined row ``_r``: project, then filter.
    stage = stage_of(
        [ph.PhysicalProject([(expr, OUT)]), ph.PhysicalFilter(other)], False
    )
    _counts, out = stage.run(rows, [], params)
    assert len(out) == sum(truths)
    kept = iter(out)
    for row, (v, t) in zip(rows, want):
        if t:
            got = next(kept)
            assert got[:-1] == row and agrees(got[-1], v)

    # A fused join stage folding straight into its sink: the residual
    # and the aggregate argument read the probe row and the candidate in
    # place, whether the build side is unique (a lookup) or not (a loop).
    join = ph.PhysicalHashJoin(JoinKind.INNER, [OUTER[0]], [INNER[0]], other)
    agg = ph.PhysicalHashAgg(
        [], [(AggFunc("max", expr), OUT)], AggStage.GLOBAL
    )
    stage = stage_of([join, agg], True)
    for row, (v, t) in zip(rows, want):
        build = row[N_OUTER:]
        for table in (stage.probes[0].build([build]), ({1: [build]}, False)):
            (hits,), groups = stage.run([row[:N_OUTER]], [table], params)
            assert hits == t
            if t:
                code = stage.sink()
                ((got,),) = code.final(groups, code.bound)
                assert agrees(got, v)
            else:
                assert not groups
    sources = [code.source for code in stage.variants.values()]
    assert len(sources) == 2
    assert all(" = (_r + _x0)" not in src for src in sources), (
        "the joined row is never built"
    )

    # The nested-loops pair loop, every join kind, all pairs.
    outers = [row[:N_OUTER] for row in rows]
    inners = [row[N_OUTER:] for row in rows]
    pairs = [o + i for o in outers for i in inners]
    holds = [t == 1 for (t,) in judge([truth_sql(other)], pairs, params)]
    pad = (None,) * len(INNER)
    for kind in JoinKind:
        loop, bound = executor._nl_loop(
            ph.PhysicalNLJoin(kind, other), N_OUTER, INDEX
        )
        out = []
        probed = loop(outers, inners, params, pad, out.append, bound)
        assert (out, probed) == nested_loops(kind, holds, outers, inners)


def nested_loops(kind, holds, outers, inners):
    """A nested-loops join whose condition is sqlite's verdict on each
    (outer, inner) pair, ``holds`` in row-major order: the reference
    the generated pair loop must match, output rows and pairs probed."""
    out, probed = [], 0
    for o, o_row in enumerate(outers):
        hit = False
        for i, i_row in enumerate(inners):
            probed += 1
            if not holds[o * len(inners) + i]:
                continue
            hit = True
            if kind in (JoinKind.INNER, JoinKind.LEFT):
                out.append(o_row + i_row)
            else:
                break
        if kind is JoinKind.SEMI and hit or kind is JoinKind.ANTI and not hit:
            out.append(o_row)
        elif kind is JoinKind.LEFT and not hit:
            out.append(o_row + (None,) * len(INNER))
    return out, probed


def test_mixed_type_comparison_raises_on_both_sides():
    expr = BoolExpr("and", [
        IsNull(ColRefExpr(COLS[1]), negated=True),
        Comparison("<", ColRefExpr(COLS[1]), ColRefExpr(COLS[3])),
    ])
    row = (1, 7, 0.5, "x", True, 1, 7, 0.5, "x", True)
    for mode in ("value", "truth"):
        em = Emitter()
        fn = load(em, getattr(em, mode)(expr, Layout(INDEX)))
        with pytest.raises(TypeError):
            fn(row, None, None, {})
    with pytest.raises(TypeError):
        compiled_row(expr, INDEX)(row, {})


def test_source_shapes():
    """The forms the design notes promise: a conjunction of comparisons
    in truth mode has no intermediate NULL, every sub-expression is
    parenthesized, and only NULL is spelled out."""
    pred = BoolExpr("and", [
        Comparison(">", ColRefExpr(COLS[1]), Literal(10)),
        Comparison(">", ColRefExpr(COLS[2]), Literal(50.0)),
    ])
    em = Emitter()
    assert em.truth(pred, Layout(INDEX)) == (
        "(((_t1 := _r[1]) is not None and (_t1 > _f0))"
        " and ((_t2 := _r[2]) is not None and (_t2 > _f1)))"
    )
    assert em.bound == [10, 50.0]
    em = Emitter()
    assert em.value(Comparison("=", ColRefExpr(COLS[6]), ColRefExpr(PARAM)),
                    Layout(INDEX, SPLIT)) == (
        "(None if (_t1 := _cand[1]) is None or (_t2 := _params[9]) is None"
        " else (_t1 == _t2))"
    )
    em = Emitter()
    assert em.value(Comparison("=", ColRefExpr(COLS[1]), Literal(None)),
                    Layout(INDEX)) == "None"
    assert em.bound == []


# ----------------------------------------------------------------------
# No Python call per row
# ----------------------------------------------------------------------

GENERATED = ("<fused-pipeline>", "<nl-join>", "<row-expression>")

#: name -> (SQL, an operator its plan must contain).
PER_ROW_CASES = {
    "filter_group_by": (
        "SELECT f.s, count(*), sum(f.v), avg(f.v * 2 + 1), min(f.v), max(f.v) "
        "FROM f WHERE f.v > 10 AND f.k1 < 900 GROUP BY f.s",
        "Filter",
    ),
    "join_case_aggregate": (
        "SELECT d.w, sum(CASE WHEN f.v > 50 THEN 1 ELSE 0 END), "
        "sum(CASE WHEN f.s = 'x' THEN f.v ELSE 0 END) "
        "FROM f, d WHERE f.k1 = d.k1 GROUP BY d.w",
        "HashJoin",
    ),
    "three_key_join": (
        "SELECT count(*), sum(f.v + d.w) FROM f, d "
        "WHERE f.k1 = d.k1 AND f.k2 = d.k2 AND f.k3 = d.k3 AND f.v <> d.w",
        "HashJoin",
    ),
    "nl_join": (
        "SELECT count(*) FROM f, d WHERE f.k1 < d.k1 AND d.w > 90 AND f.v > 95",
        "NLJoin",
    ),
}


def make_fact_db(fact_rows: int) -> Database:
    rng = random.Random(1)
    db = Database()
    db.create_table(Table(
        "f",
        [Column("k1", INT), Column("k2", INT), Column("k3", INT),
         Column("v", INT), Column("s", TEXT)],
        distribution_columns=("k1",),
    ))
    db.create_table(Table(
        "d",
        [Column("k1", INT), Column("k2", INT), Column("k3", INT),
         Column("w", INT)],
        distribution_columns=("k1",),
    ))
    db.insert("f", [
        (rng.randint(0, 999), rng.randint(0, 3), rng.randint(0, 3),
         rng.randint(0, 100), rng.choice("xyz"))
        for _ in range(fact_rows)
    ])
    db.insert("d", [
        (k, rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 100))
        for k in range(0, 1000, 4)
    ])
    db.analyze()
    return db


def calls_from_generated_code(run) -> int:
    """``call`` events whose calling frame is generated code.  The
    collector is parked: a ``gc.callbacks`` hook (Hypothesis installs
    one) runs on top of whichever frame happened to allocate."""
    count = 0

    def profiler(frame, event, _arg):
        nonlocal count
        if event == "call" and frame.f_back is not None and (
            frame.f_back.f_code.co_filename in GENERATED
        ):
            count += 1

    gc.disable()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


@pytest.mark.parametrize("fact_rows", [1_500, 15_000])
def test_no_python_call_per_row_in_generated_code(fact_rows):
    db = make_fact_db(fact_rows)
    orca = Orca(db, config=OptimizerConfig(segments=4))
    for name, (sql, operator) in PER_ROW_CASES.items():
        result = orca.optimize(sql)
        assert operator in plan_operators(result.plan), name
        executor = Executor(
            Cluster(db, segments=4), execution_mode=ExecutionMode.FUSED
        )
        ran: list = []
        calls = calls_from_generated_code(
            lambda: ran.append(executor.execute(result.plan, result.output_cols))
        )
        reference = Executor(
            Cluster(db, segments=4), execution_mode=ExecutionMode.ROW
        ).execute(result.plan, result.output_cols)
        assert ran[0].rows == reference.rows, name
        assert ran[0].metrics.rows_scanned >= fact_rows, name
        assert calls == 0, (name, calls)


class Coalesce(ScalarExpr):
    """An expression kind the engine has never heard of."""

    def __init__(self, left, right):
        self.children = (left, right)

    def key(self):
        return ("coalesce",) + tuple(c.key() for c in self.children)


def test_generated_stage_source_inlines_every_expression():
    """WHERE, a CASE aggregate and a join residual: no ``_f<i>(...)``
    closure call is left in the stage source.  An expression kind the
    emitter does not know gets no closure either: compiling it is a
    ``TypeError``, through a stage or ``compiled_row``."""
    db = make_fact_db(400)
    orca = Orca(db, config=OptimizerConfig(segments=4))
    result = orca.optimize(
        "SELECT f.s, sum(CASE WHEN f.v > d.w THEN 1 ELSE 0 END) FROM f, d "
        "WHERE f.k1 = d.k1 AND f.v <> d.w AND f.k2 < 3 GROUP BY f.s"
    )
    Executor(Cluster(db, segments=4)).execute(result.plan, result.output_cols)
    sources = [
        code.source
        for chain in fused.fused_chains(result.plan).values()
        for stage in chain.compiled.stages
        for code in stage.variants.values()
    ]
    text = "\n".join(sources)
    assert " if " in text and "!=" in text and "<" in text
    assert not re.search(r"_f\d+\(", text), text

    unknown = Comparison(
        ">", Coalesce(ColRefExpr(COLS[1]), Literal(0)), Literal(1)
    )
    with pytest.raises(TypeError, match="cannot compile Coalesce"):
        stage_of([ph.PhysicalFilter(unknown)], False).code(())
    with pytest.raises(TypeError, match="cannot compile Coalesce"):
        compiled_row(unknown, INDEX)


# ----------------------------------------------------------------------
# A re-bind does not reach the Python compiler
# ----------------------------------------------------------------------

def memo_sizes() -> tuple[int, int]:
    return len(fused._stage_code), len(emit._row_code)


REBIND_TEMPLATES = {
    # A join residual, a filter and an aggregate.
    "compare": (
        "SELECT t1.c, count(*), sum(t1.b) FROM t1, t2 WHERE t1.a = t2.a "
        "AND t1.b + {} < t2.b AND t1.b > 3 GROUP BY t1.c ORDER BY t1.c",
        (5, 40, 70, 90),
    ),
    "in_list": (
        "SELECT t1.c, count(*) FROM t1, t2 WHERE t1.a = t2.a "
        "AND t1.b IN ({}, 7, 9) GROUP BY t1.c ORDER BY t1.c",
        (5, 40, 70, 90),
    ),
    # The fingerprint keeps LIKE patterns structural, so each redraw is
    # a fresh plan; its stages are still the first one's code.
    "like": (
        "SELECT count(*), min(t1.b) FROM t1, t2 WHERE t1.a = t2.a "
        "AND t1.c LIKE '{}'",
        ("x%", "y%", "%z", "_"),
    ),
    # Nested-loops condition.
    "nl": (
        "SELECT count(*) FROM t1, t2 WHERE t1.b < t2.b AND t2.b < {}",
        (5, 40, 70, 90),
    ),
}


@pytest.mark.parametrize("mode", [ExecutionMode.FUSED],
                         ids=lambda m: m.value)
@pytest.mark.parametrize("name", sorted(REBIND_TEMPLATES))
def test_rebinding_a_literal_adds_no_code(name, mode):
    db = make_small_db(t1_rows=600, t2_rows=150)
    template, values = REBIND_TEMPLATES[name]
    with repro.connect(db, segments=4) as plain:
        want = {v: plain.execute(template.format(v)).rows for v in values}
    with repro.connect(
        db, segments=4, enable_plan_cache=True, execution_mode=mode
    ) as session:
        assert session.execute(template.format(values[0])).rows == want[values[0]]
        assert session.last_result.plan_cache == "miss"
        sizes = memo_sizes()
        assert sum(sizes) > 0
        for value in values[1:] + values:
            assert session.execute(template.format(value)).rows == want[value]
        stats = session.orca.plan_cache.stats()
        if name == "like":
            assert stats["stores"] == len(values)
        else:
            # Every other value twice; the entry's own value is a hit.
            assert (stats["stores"], stats["rebinds"]) == (
                1, 2 * (len(values) - 1)
            )
        assert memo_sizes() == sizes


def test_null_in_place_of_a_value_is_one_more_shape():
    """NULL is the one constant the source spells out: against any
    number of values it adds exactly one stage source."""
    def stage(value):
        return stage_of([ph.PhysicalFilter(
            Comparison(">", ColRefExpr(COLS[1]), Literal(value, INT))
        )], False).code(())

    base = stage(5)
    size = len(fused._stage_code)
    assert [stage(v).source for v in (7, 23, 41)] == [base.source] * 3
    assert len(fused._stage_code) == size
    null = stage(None)
    assert null.source != base.source
    assert {base.source, null.source} <= set(fused._stage_code)
    assert len(fused._stage_code) <= size + 1
    rows = [(1, 9, None, None, None, 1, None, None, None, None)]
    for compiled, want in ((base, rows), (null, [])):
        out: list = []
        compiled.fn(rows, (), {}, out.append, compiled.bound, None)
        assert out == want


def test_redrawing_a_literal_as_null_returns_the_uncached_rows():
    """The plan cache never re-binds across types, and NULL is not an
    int: the redrawn statement is optimized afresh and returns what a
    session without a cache returns, as does the value after it."""
    db = make_small_db(t1_rows=600, t2_rows=150)
    template = (
        "SELECT t1.c, count(*) FROM t1, t2 WHERE t1.a = t2.a "
        "AND t1.b > {} GROUP BY t1.c ORDER BY t1.c"
    )
    with repro.connect(db, segments=4) as plain:
        want = {v: plain.execute(template.format(v)).rows for v in (5, "NULL")}
    assert want[5] and want["NULL"] == []
    with repro.connect(db, segments=4, enable_plan_cache=True) as session:
        assert session.execute(template.format(5)).rows == want[5]
        assert session.execute(template.format("NULL")).rows == []
        assert session.last_result.plan_cache == "miss"
        assert session.execute(template.format(5)).rows == want[5]
