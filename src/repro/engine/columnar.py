"""Columnar batches and the vector expression compiler.

The batch executor (``repro.engine.batch``) runs physical plans over
column-major :class:`Chunk` batches instead of interpreting expressions
row-at-a-time with per-row ``dict`` environments.  Two pieces live here:

- **Storage**: :class:`Chunk` holds one bucket's rows either row-major
  (``list[tuple]``, shared with the row path) or column-major
  (``list`` per column, ``array.array``-packed for NULL-free typed
  columns).  :class:`DColumns` is the distributed batch — it duck-types
  :class:`repro.engine.executor.DRows` (``kind`` / ``cols`` /
  ``buckets`` / ``single_copy`` / ``width``) with *lazy* row
  materialization, so row-path operators (merge join, window, motions)
  run unchanged on batch inputs.

- **Compilation**: :func:`compiled_vector` compiles a scalar expression
  once per (expression, column layout) into a reusable closure mapping
  whole columns to a result vector.  Where output rows are
  data-dependent (join residuals and conditions, the fused stage loops)
  expressions are evaluated per row, and there they are *generated*:
  :class:`Emitter` renders a ``ScalarExpr`` as Python expression source
  that the caller inlines into its own loop (or, :func:`compiled_row`,
  wraps in a ``lambda``).  Both forms preserve SQL three-valued logic
  exactly as ``ScalarExpr.evaluate`` implements it, value for value —
  this is what keeps batch and fused results bit-identical to the row
  path.

Whatever is compiled from an expression is cached on the expression
instance (``_vec_cache`` / ``_row_cache``, keyed by the column layout;
left out of its pickle), so repeated executions of the same plan pay
compilation once.  Generated source never spells a constant other than
SQL ``NULL`` — values are bound by name — so code objects are memoized
by source and a re-bound literal does not reach the Python compiler.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.catalog.types import FLOAT, INT
from repro.ops.scalar import (
    _ARITH_FUNCS,
    _CMP_FUNCS,
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

SEGMENTED, SINGLETON, REPLICATED = "segmented", "singleton", "replicated"


def _pack(values: list, dtype) -> Sequence:
    """Pack a NULL-free, type-clean column into a typed ``array``.

    Falls back to the plain list when any value is NULL or of a widened
    Python type (``bool`` in an INT column, ``int`` in a FLOAT column):
    round-tripping those through an array would change their Python type
    and break bit-identity with the row path.
    """
    if dtype is INT and all(type(v) is int for v in values):
        try:
            return array("q", values)
        except OverflowError:
            return values
    if dtype is FLOAT and all(type(v) is float for v in values):
        return array("d", values)
    return values


class Chunk:
    """One bucket of a distributed batch, row- or column-major.

    Row-major chunks share the row list with the row path (zero-copy)
    and extract referenced columns lazily, caching them per position;
    column-major chunks (produced by columnar filter/project) share
    column lists with their input where possible and materialize row
    tuples only when a row-path operator asks for them.
    """

    __slots__ = ("n", "_rows", "_columns", "_cache", "_dtypes")

    def __init__(self, n, rows=None, columns=None, dtypes=None):
        self.n = n
        self._rows = rows
        self._columns = columns
        self._cache: Optional[dict[int, Sequence]] = None
        self._dtypes = dtypes

    @classmethod
    def from_rows(cls, rows: list[tuple], dtypes=None) -> "Chunk":
        return cls(len(rows), rows=rows, dtypes=dtypes)

    @classmethod
    def from_columns(cls, columns: list[Sequence], n: int) -> "Chunk":
        return cls(n, columns=columns)

    @property
    def row_major(self) -> bool:
        return self._rows is not None

    def rows(self) -> list[tuple]:
        out = self._rows
        if out is None:
            cols = self._columns
            out = list(zip(*cols)) if cols else [()] * self.n
            self._rows = out
        return out

    def columns(self) -> list[Sequence]:
        """Every column (only valid column-major, or after extraction)."""
        cols = self._columns
        if cols is None:
            rows = self._rows
            ncols = len(rows[0]) if rows else 0
            cols = self._columns = [self.col(p) for p in range(ncols)]
        return cols

    def col(self, pos: int) -> Sequence:
        cols = self._columns
        if cols is not None:
            return cols[pos]
        cache = self._cache
        if cache is None:
            cache = self._cache = {}
        column = cache.get(pos)
        if column is None:
            column = [r[pos] for r in self._rows]
            if self._dtypes is not None:
                column = _pack(column, self._dtypes[pos])
            cache[pos] = column
        return column

    __getitem__ = col


class DColumns:
    """A distributed columnar batch; duck-types ``DRows``.

    ``kind`` and the metric-facing surface (``bucket_sizes``,
    ``total_rows``, ``single_copy``, ``width``) match ``DRows`` exactly,
    and ``buckets`` materializes per-bucket row lists on first access so
    operators without a batch implementation keep working untouched.
    """

    __slots__ = ("kind", "cols", "chunks", "_buckets")

    def __init__(self, kind: str, cols: list[ColRef], chunks: list[Chunk]):
        self.kind = kind
        self.cols = cols
        self.chunks = chunks
        self._buckets: Optional[list[list[tuple]]] = None

    @classmethod
    def from_drows(cls, drows, dtypes=None) -> "DColumns":
        out = cls(
            drows.kind,
            drows.cols,
            [Chunk.from_rows(b, dtypes) for b in drows.buckets],
        )
        out._buckets = drows.buckets
        return out

    @property
    def buckets(self) -> list[list[tuple]]:
        out = self._buckets
        if out is None:
            out = self._buckets = [ch.rows() for ch in self.chunks]
        return out

    def bucket_sizes(self) -> list[int]:
        return [ch.n for ch in self.chunks]

    def total_rows(self) -> int:
        return sum(ch.n for ch in self.chunks)

    def single_copy(self) -> list[tuple]:
        # Mirrors DRows.single_copy, including its single-populated-bucket
        # no-copy fast path; callers treat the result as read-only.
        if self.kind in (SINGLETON, REPLICATED):
            return self.chunks[0].rows()
        populated = [ch.rows() for ch in self.chunks if ch.n]
        if len(populated) == 1:
            return populated[0]
        out: list[tuple] = []
        for b in populated:
            out.extend(b)
        return out

    def width(self) -> int:
        return sum(c.dtype.width for c in self.cols) or 8


# ----------------------------------------------------------------------
# Vector expression compiler
# ----------------------------------------------------------------------
# A compiled node is (_CONST, value) — the expression is a constant for
# every row — or (_VEC, fn) with fn(chunk, n, params) -> sequence of n
# values.  Constant folding is safe because ScalarExpr.evaluate has no
# side effects; 3VL rules below mirror scalar.py operator by operator.

_CONST, _VEC = 0, 1

_CMP_VV = {
    "=": lambda u, w: [None if x is None or y is None else x == y
                       for x, y in zip(u, w)],
    "<>": lambda u, w: [None if x is None or y is None else x != y
                        for x, y in zip(u, w)],
    "<": lambda u, w: [None if x is None or y is None else x < y
                       for x, y in zip(u, w)],
    "<=": lambda u, w: [None if x is None or y is None else x <= y
                        for x, y in zip(u, w)],
    ">": lambda u, w: [None if x is None or y is None else x > y
                       for x, y in zip(u, w)],
    ">=": lambda u, w: [None if x is None or y is None else x >= y
                        for x, y in zip(u, w)],
}

_CMP_VC = {
    "=": lambda u, b: [None if x is None else x == b for x in u],
    "<>": lambda u, b: [None if x is None else x != b for x in u],
    "<": lambda u, b: [None if x is None else x < b for x in u],
    "<=": lambda u, b: [None if x is None else x <= b for x in u],
    ">": lambda u, b: [None if x is None else x > b for x in u],
    ">=": lambda u, b: [None if x is None else x >= b for x in u],
}

_CMP_CV = {
    "=": lambda a, w: [None if y is None else a == y for y in w],
    "<>": lambda a, w: [None if y is None else a != y for y in w],
    "<": lambda a, w: [None if y is None else a < y for y in w],
    "<=": lambda a, w: [None if y is None else a <= y for y in w],
    ">": lambda a, w: [None if y is None else a > y for y in w],
    ">=": lambda a, w: [None if y is None else a >= y for y in w],
}

_ARITH_VV = {
    "+": lambda u, w: [None if x is None or y is None else x + y
                       for x, y in zip(u, w)],
    "-": lambda u, w: [None if x is None or y is None else x - y
                       for x, y in zip(u, w)],
    "*": lambda u, w: [None if x is None or y is None else x * y
                       for x, y in zip(u, w)],
    "/": lambda u, w: [None if x is None or y is None
                       else ((x / y) if y else None)
                       for x, y in zip(u, w)],
}

_ARITH_VC = {
    "+": lambda u, b: [None if x is None else x + b for x in u],
    "-": lambda u, b: [None if x is None else x - b for x in u],
    "*": lambda u, b: [None if x is None else x * b for x in u],
    # b is known non-zero: the compile step folds x / 0 to NULL.
    "/": lambda u, b: [None if x is None else x / b for x in u],
}

_ARITH_CV = {
    "+": lambda a, w: [None if y is None else a + y for y in w],
    "-": lambda a, w: [None if y is None else a - y for y in w],
    "*": lambda a, w: [None if y is None else a * y for y in w],
    "/": lambda a, w: [None if y is None else ((a / y) if y else None)
                       for y in w],
}


def _binary(op, left, right, scalar_funcs, vv, vc, cv):
    lt, lf = left
    rt, rf = right
    if lt is _CONST and rt is _CONST:
        if lf is None or rf is None:
            return (_CONST, None)
        return (_CONST, scalar_funcs[op](lf, rf))
    if lt is _CONST:
        if lf is None:
            return (_CONST, None)
        f = cv[op]
        return (_VEC, lambda ch, n, p, _f=f, _a=lf, _g=rf: _f(_a, _g(ch, n, p)))
    if rt is _CONST:
        if rf is None:
            return (_CONST, None)
        f = vc[op]
        return (_VEC, lambda ch, n, p, _f=f, _b=rf, _g=lf: _f(_g(ch, n, p), _b))
    f = vv[op]
    return (
        _VEC,
        lambda ch, n, p, _f=f, _l=lf, _r=rf: _f(_l(ch, n, p), _r(ch, n, p)),
    )


def _fold_and(left, right):
    """3VL AND of two compiled operands (associative, side-effect free)."""
    lt, lf = left
    rt, rf = right
    if lt is _CONST and rt is _CONST:
        if lf is False or rf is False:
            return (_CONST, False)
        if lf is None or rf is None:
            return (_CONST, None)
        return (_CONST, True)
    if lt is _CONST or rt is _CONST:
        const, vec = (lf, rf) if lt is _CONST else (rf, lf)
        if const is False:
            return (_CONST, False)
        if const is None:
            return (_VEC, lambda ch, n, p, _g=vec: [
                False if v is False else None for v in _g(ch, n, p)
            ])
        return (_VEC, lambda ch, n, p, _g=vec: [
            False if v is False else (None if v is None else True)
            for v in _g(ch, n, p)
        ])
    return (_VEC, lambda ch, n, p, _f=lf, _g=rf: [
        False if x is False or y is False
        else (None if x is None or y is None else True)
        for x, y in zip(_f(ch, n, p), _g(ch, n, p))
    ])


def _fold_or(left, right):
    lt, lf = left
    rt, rf = right
    if lt is _CONST and rt is _CONST:
        if lf is True or rf is True:
            return (_CONST, True)
        if lf is None or rf is None:
            return (_CONST, None)
        return (_CONST, False)
    if lt is _CONST or rt is _CONST:
        const, vec = (lf, rf) if lt is _CONST else (rf, lf)
        if const is True:
            return (_CONST, True)
        if const is None:
            return (_VEC, lambda ch, n, p, _g=vec: [
                True if v is True else None for v in _g(ch, n, p)
            ])
        return (_VEC, lambda ch, n, p, _g=vec: [
            True if v is True else (None if v is None else False)
            for v in _g(ch, n, p)
        ])
    return (_VEC, lambda ch, n, p, _f=lf, _g=rf: [
        True if x is True or y is True
        else (None if x is None or y is None else False)
        for x, y in zip(_f(ch, n, p), _g(ch, n, p))
    ])


def _materialize(compiled, ch, n, p):
    t, payload = compiled
    if t is _CONST:
        return [payload] * n
    return payload(ch, n, p)


def _compile(expr: ScalarExpr, index: Mapping[int, int]):
    t = type(expr)
    if t is ColRefExpr:
        pos = index.get(expr.ref.id)
        if pos is not None:
            return (_VEC, lambda ch, n, p, _pos=pos: ch[_pos])
        cid = expr.ref.id
        # Correlated parameter: resolved at call time, like the row
        # path's env.setdefault over _param_env.
        return (_VEC, lambda ch, n, p, _cid=cid: [p[_cid]] * n)
    if t is Literal:
        return (_CONST, expr.value)
    if t is Comparison:
        left = _compile(expr.left, index)
        right = _compile(expr.right, index)
        return _binary(expr.op, left, right, _CMP_FUNCS,
                       _CMP_VV, _CMP_VC, _CMP_CV)
    if t is Arith:
        left = _compile(expr.left, index)
        right = _compile(expr.right, index)
        if expr.op == "/" and right[0] is _CONST and not right[1]:
            # x / 0 and x / NULL are NULL for every x (Arith.evaluate).
            return (_CONST, None)
        return _binary(expr.op, left, right, _ARITH_FUNCS,
                       _ARITH_VV, _ARITH_VC, _ARITH_CV)
    if t is BoolExpr:
        if expr.op == BoolExpr.NOT:
            arg = _compile(expr.children[0], index)
            if arg[0] is _CONST:
                v = arg[1]
                return (_CONST, None if v is None else (not v))
            g = arg[1]
            return (_VEC, lambda ch, n, p, _g=g: [
                None if v is None else (not v) for v in _g(ch, n, p)
            ])
        fold = _fold_and if expr.op == BoolExpr.AND else _fold_or
        acc = (_CONST, True) if expr.op == BoolExpr.AND else (_CONST, False)
        for child in expr.children:
            acc = fold(acc, _compile(child, index))
        return acc
    if t is IsNull:
        arg = _compile(expr.arg, index)
        negated = expr.negated
        if arg[0] is _CONST:
            is_null = arg[1] is None
            return (_CONST, (not is_null) if negated else is_null)
        g = arg[1]
        if negated:
            return (_VEC, lambda ch, n, p, _g=g: [
                v is not None for v in _g(ch, n, p)
            ])
        return (_VEC, lambda ch, n, p, _g=g: [
            v is None for v in _g(ch, n, p)
        ])
    if t is InList:
        arg = _compile(expr.arg, index)
        values = expr.values
        negated = expr.negated
        if arg[0] is _CONST:
            v = arg[1]
            if v is None:
                return (_CONST, None)
            hit = v in values
            return (_CONST, (not hit) if negated else hit)
        g = arg[1]
        if negated:
            return (_VEC, lambda ch, n, p, _g=g, _vals=values: [
                None if v is None else v not in _vals for v in _g(ch, n, p)
            ])
        return (_VEC, lambda ch, n, p, _g=g, _vals=values: [
            None if v is None else v in _vals for v in _g(ch, n, p)
        ])
    if t is LikeExpr:
        arg = _compile(expr.arg, index)
        match = expr._regex.match
        negated = expr.negated
        if arg[0] is _CONST:
            v = arg[1]
            if v is None:
                return (_CONST, None)
            hit = bool(match(str(v)))
            return (_CONST, (not hit) if negated else hit)
        g = arg[1]
        if negated:
            return (_VEC, lambda ch, n, p, _g=g, _m=match: [
                None if v is None else not bool(_m(str(v)))
                for v in _g(ch, n, p)
            ])
        return (_VEC, lambda ch, n, p, _g=g, _m=match: [
            None if v is None else bool(_m(str(v))) for v in _g(ch, n, p)
        ])
    if t is CaseExpr:
        whens = [
            (_compile(c, index), _compile(r, index)) for c, r in expr.whens
        ]
        els = _compile(expr.else_, index)

        def case_fn(ch, n, p, _whens=whens, _els=els):
            conds = [_materialize(c, ch, n, p) for c, _r in _whens]
            results = [_materialize(r, ch, n, p) for _c, r in _whens]
            else_vec = _materialize(_els, ch, n, p)
            out = []
            append = out.append
            for i in range(n):
                for cond, result in zip(conds, results):
                    if cond[i] is True:
                        append(result[i])
                        break
                else:
                    append(else_vec[i])
            return out

        return (_VEC, case_fn)

    # Fallback for expression kinds with no vector form: evaluate with a
    # per-row environment, exactly like the row path.
    items = tuple(index.items())

    def fallback(ch, n, p, _expr=expr, _items=items):
        out = []
        evaluate = _expr.evaluate
        for row in ch.rows():
            env = {cid: row[pos] for cid, pos in _items}
            for cid, value in p.items():
                env.setdefault(cid, value)
            out.append(evaluate(env))
        return out

    return (_VEC, fallback)


def _layout_key(expr: ScalarExpr, index: Mapping[int, int]) -> tuple:
    # Column ids are unique within the key, so mixed None/int positions
    # are never compared by sorted().
    return tuple(sorted((cid, index.get(cid)) for cid in expr.used_columns()))


def compiled_vector(
    expr: ScalarExpr, index: Mapping[int, int]
) -> Callable[[Chunk, int, Mapping[int, Any]], Sequence]:
    """Compile ``expr`` for the column layout ``index`` (col id -> pos).

    Returns ``f(chunk, n, params) -> sequence of n values`` and caches
    the closure on the expression instance, keyed by the positions of
    the columns it actually references.
    """
    cache = getattr(expr, "_vec_cache", None)
    if cache is None:
        cache = {}
        expr._vec_cache = cache
    key = _layout_key(expr, index)
    fn = cache.get(key)
    if fn is None:
        compiled = _compile(expr, index)
        if compiled[0] is _CONST:
            value = compiled[1]
            fn = lambda ch, n, p, _v=value: [_v] * n  # noqa: E731
        else:
            fn = compiled[1]
        cache[key] = fn
    return fn


# ----------------------------------------------------------------------
# Row-expression emitter
# ----------------------------------------------------------------------
# Per-row evaluation is compiled, not interpreted: Emitter turns a
# ScalarExpr into the source of one Python expression, which the fused
# stage generator inlines into its loops, the nested-loops join into its
# pair loop, and compiled_row wraps in a lambda.  Only constants leave
# the source: every literal value, IN list and LIKE matcher is bound to
# a ``_f<i>`` name (SQL NULL alone is spelled ``None``), so the source —
# and with it each compiled-code memo — has one entry per expression
# *shape*, whatever values a re-bind draws.

_PY_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Kinds whose ``evaluate`` yields only True, False or NULL.
_BOOLEAN = (Comparison, BoolExpr, IsNull, InList, LikeExpr)


class Layout:
    """Where generated code finds the columns an expression reads: in
    the row ``_r`` or, while a join's output row is not built, in the
    outer row ``_row`` and the inner row ``_cand`` (``split`` is the
    outer row's width).  A column ``index`` does not hold is a
    correlated parameter, read from ``_params`` at call time."""

    __slots__ = ("index", "split")

    def __init__(self, index: Mapping[int, int], split: Optional[int] = None):
        self.index = index
        self.split = split

    def at(self, pos: int) -> str:
        split = self.split
        if split is None:
            return f"_r[{pos}]"
        return f"_row[{pos}]" if pos < split else f"_cand[{pos - split}]"

    @property
    def row(self) -> str:
        return "_r" if self.split is None else "(_row + _cand)"


def _evaluate_row(expr: ScalarExpr, index: Mapping[int, int]):
    """``f(row, params)`` for an expression kind the emitter does not
    know: ``evaluate`` over a per-row environment, like the row path."""
    items = tuple(index.items())

    def fallback(r, p):
        env = {cid: r[pos] for cid, pos in items}
        for cid, value in p.items():
            env.setdefault(cid, value)
        return expr.evaluate(env)

    return fallback


class Emitter:
    """``ScalarExpr`` -> Python expression source, in two modes.

    :meth:`value` renders an expression whose value is exactly
    ``expr.evaluate(env)``; :meth:`truth` one that is truthy exactly
    when ``expr.evaluate(env) is True`` (what a filter, a join
    condition and a CASE arm ask), which needs no intermediate NULL.
    Sub-expressions are evaluated in ``evaluate``'s order but never
    past the point that decides the result (a NULL left operand, a
    non-true conjunct in truth mode), so the source can only skip an
    exception ``evaluate`` would raise, never add one.

    Every sub-expression is emitted in parentheses (``_t1 > _f2 is
    True`` would be a chained comparison), temporaries are ``_t<n>``
    walrus targets, and constants go to ``bound`` as ``_f<i>``.
    N-ary AND / OR and CASE arms are emitted flat; what nests is
    operand depth, which CPython's 200-parenthesis limit caps near 90
    levels (the SQL frontend gives out around 25).
    """

    def __init__(self):
        self.bound: list = []
        self._temps = 0

    def bind(self, obj) -> str:
        self.bound.append(obj)
        return f"_f{len(self.bound) - 1}"

    def unpack(self) -> list[str]:
        """Function-body lines that load every bound constant from
        ``_B`` into the local its name promises."""
        return [f"    _f{i} = _B[{i}]" for i in range(len(self.bound))]

    def value(self, expr: ScalarExpr, layout: Layout) -> str:
        return self._emit(expr, layout, False)

    def truth(self, expr: ScalarExpr, layout: Layout) -> str:
        return self._emit(expr, layout, True)

    def _temp(self) -> str:
        self._temps += 1
        return f"_t{self._temps}"

    def _operand(self, expr, layout) -> tuple[str, str]:
        """(source at first use, source at later uses); the two are the
        same name when the operand is a constant and needs no NULL test."""
        src = self.value(expr, layout)
        if type(expr) is Literal:
            return src, src
        temp = self._temp()
        return f"({temp} := {src})", temp

    @staticmethod
    def _strict(operands, result: str, truth: bool) -> str:
        """A node that is NULL when any operand is; ``result`` (boolean
        in truth mode) reads the operands by their later-use names."""
        if any(again == "None" for _first, again in operands):
            return "False" if truth else "None"
        tests = [first for first, again in operands if first != again]
        if truth:
            return "(" + " and ".join(
                [f"{t} is not None" for t in tests] + [result]
            ) + ")"
        if not tests:
            return result
        nulls = " or ".join(f"{t} is None" for t in tests)
        return f"(None if {nulls} else {result})"

    def _emit(self, expr, layout, truth):
        t = type(expr)
        if t is Comparison:
            a = self._operand(expr.left, layout)
            b = self._operand(expr.right, layout)
            return self._strict(
                [a, b], f"({a[1]} {_PY_CMP[expr.op]} {b[1]})", truth
            )
        if t is BoolExpr:
            return self._bool(expr, layout, truth)
        if t is IsNull:
            test = "is not None" if expr.negated else "is None"
            return f"({self.value(expr.arg, layout)} {test})"
        if t is InList:
            a = self._operand(expr.arg, layout)
            test = "not in" if expr.negated else "in"
            return self._strict(
                [a], f"({a[1]} {test} {self.bind(expr.values)})", truth
            )
        if t is LikeExpr:
            a = self._operand(expr.arg, layout)
            test = "is None" if expr.negated else "is not None"
            match = self.bind(expr._regex.match)
            return self._strict(
                [a], f"({match}(str({a[1]})) {test})", truth
            )
        if t is CaseExpr:
            arms = [
                (self.truth(cond, layout), self._emit(result, layout, truth))
                for cond, result in expr.whens
            ]
            return "(" + "".join(
                f"{result} if {cond} else " for cond, result in arms
            ) + self._emit(expr.else_, layout, truth) + ")"
        # The remaining kinds have no cheaper truth form than their value.
        if t is ColRefExpr:
            pos = layout.index.get(expr.ref.id)
            src = layout.at(pos) if pos is not None else (
                f"_params[{expr.ref.id}]"
            )
        elif t is Literal:
            src = "None" if expr.value is None else self.bind(expr.value)
        elif t is Arith:
            a = self._operand(expr.left, layout)
            b = self._operand(expr.right, layout)
            if expr.op == "/":
                result = f"(({a[1]} / {b[1]}) if {b[1]} else None)"
            else:
                result = f"({a[1]} {expr.op} {b[1]})"
            src = self._strict([a, b], result, False)
        else:
            fallback = self.bind(_evaluate_row(expr, layout.index))
            src = f"{fallback}({layout.row}, _params)"
        return f"({src} is True)" if truth else src

    def _bool(self, expr, layout, truth):
        kids = expr.children
        if expr.op == BoolExpr.NOT:
            a = self._operand(kids[0], layout)
            return self._strict([a], f"(not {a[1]})", truth)
        is_and = expr.op == BoolExpr.AND
        if not kids:
            return "True" if is_and else "False"
        if truth and is_and:
            return "(" + " and ".join(
                self._holds(kid, layout) for kid in kids
            ) + ")"
        if truth:
            return "(" + " or ".join(
                self.truth(kid, layout) for kid in kids
            ) + ")"
        # evaluate(): stop at the first False (AND) / True (OR) by
        # identity, else NULL if any child was NULL.
        stop, done = ("False", "True") if is_and else ("True", "False")
        temps = [self._temp() for _ in kids]
        stops = " or ".join(
            f"({temp} := {self.value(kid, layout)}) is {stop}"
            for temp, kid in zip(temps, kids)
        )
        nulls = " or ".join(f"{temp} is None" for temp in temps)
        return f"({stop} if {stops} else (None if {nulls} else {done}))"

    def _holds(self, expr, layout) -> str:
        """A conjunct that does not fail an AND: neither False nor NULL."""
        if type(expr) in _BOOLEAN:
            return self.truth(expr, layout)
        temp = self._temp()
        return (
            f"(({temp} := {self.value(expr, layout)}) is not False"
            f" and {temp} is not None)"
        )


def load_generated(src: str, filename: str, memo: dict, **names) -> dict:
    """Execute generated module source with ``names`` as its globals
    and return the namespace.  The code object is compiled once per
    distinct source and kept in ``memo``, so only a new *shape* ever
    reaches the Python compiler."""
    code = memo.get(src)
    if code is None:
        code = memo[src] = compile(src, filename, "exec")
    exec(code, names)  # noqa: S102
    return names


#: Generated row-expression and nested-loops-join source -> code object.
_row_code: dict[str, Any] = {}


def row_cached(expr: ScalarExpr, key: tuple, make: Callable[[], Any]):
    """``make()``, once per (expression instance, ``key``): what is
    compiled from an expression lives in its ``_row_cache``, which its
    pickle leaves out."""
    cache = expr.__dict__.get("_row_cache")
    if cache is None:
        cache = expr._row_cache = {}
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = make()
    return hit


def compiled_row(
    expr: ScalarExpr, index: Mapping[int, int]
) -> Callable[[tuple, Mapping[int, Any]], Any]:
    """Compile ``expr`` into a reusable ``f(row, params) -> value``
    for the column layout ``index``."""

    def make():
        em = Emitter()
        body = em.value(expr, Layout(index))
        src = "\n".join(
            ["def _make(_B):"] + em.unpack()
            + [f"    return lambda _r, _params: {body}", ""]
        )
        return load_generated(
            src, "<row-expression>", _row_code
        )["_make"](em.bound)

    return row_cached(expr, _layout_key(expr, index), make)
