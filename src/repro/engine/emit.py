"""The row-expression emitter: ``ScalarExpr`` -> Python source.

:class:`Emitter` is the one place a ``ScalarExpr`` gets its value: no
expression is evaluated by walking its tree.  It renders an expression
as the source of one Python expression, which the caller inlines into a
loop of its own — a pipeline stage or a window aggregate's fold
(:mod:`repro.engine.fused`), the nested-loops join's pair loop — or,
:func:`compiled_row`, wraps in a ``lambda`` (an index scan's or a merge
join's residual).  :class:`Layout` says where that source finds
its columns.  The source implements SQL three-valued logic, and sqlite
is its judge: ``tests/test_expr_emitter.py`` compares it with ``SELECT
<expr>`` over NULL-bearing rows through every door above.  Two
deviations from sqlite are deliberate: ``/`` is true division
(``Arith.dtype`` is FLOAT; a zero divisor gives NULL), and LIKE is
case-sensitive, as in PostgreSQL.

Whatever is compiled from an expression outside a stage is cached on
the expression instance (``_row_cache``, keyed by the column layout;
left out of its pickle), so repeated executions of the same plan pay
compilation once.  Generated source never spells a constant other than
SQL ``NULL`` — every literal value, IN list and LIKE matcher is bound
to a ``_f<i>`` name — so code objects are memoized by source
(:func:`load_generated`), one entry per expression *shape*, and a
re-bound literal does not reach the Python compiler.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.ops.scalar import (
    Arith,
    BoolExpr,
    CaseExpr,
    ColRefExpr,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    ScalarExpr,
)

_PY_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Kinds whose value is only True, False or NULL.
_BOOLEAN = (Comparison, BoolExpr, IsNull, InList, LikeExpr)


class Layout:
    """Where generated code finds the columns an expression reads.

    The row is the concatenation of ``parts``, ``(name, width)`` pairs
    in column order: one row ``_r`` by default, or, while a joined row
    is not built, the probe row and one candidate per hash join (the
    last part's width is not read).  A column ``index`` does not hold is
    a correlated parameter, read from ``_params`` at call time."""

    __slots__ = ("index", "parts")

    def __init__(self, index: Mapping[int, int], parts=(("_r", None),)):
        self.index = index
        self.parts = parts

    def at(self, pos: int) -> str:
        for name, width in self.parts[:-1]:
            if pos < width:
                return f"{name}[{pos}]"
            pos -= width
        return f"{self.parts[-1][0]}[{pos}]"

    @property
    def row(self) -> str:
        """The whole row as one expression (a tuple concatenation when
        it is still in parts)."""
        names = [name for name, _w in self.parts]
        return names[0] if len(names) == 1 else "(" + " + ".join(names) + ")"


class Emitter:
    """``ScalarExpr`` -> Python expression source, in two modes.

    :meth:`value` renders an expression's SQL value (``None`` = NULL);
    :meth:`truth` one that is truthy exactly when that value is True
    (what a filter, a join condition and a CASE arm ask), which needs
    no intermediate NULL.  Operands are evaluated left to right but
    never past the point that decides the result (a NULL left operand,
    a non-true conjunct in truth mode).  A kind the emitter does not
    know — an aggregate or window call among them, which has no per-row
    value — is a ``TypeError`` when it is compiled.

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
            raise TypeError(f"the emitter cannot compile {t.__name__}")
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
        # Value mode: stop at the first False (AND) / True (OR) by
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


def _layout_key(expr: ScalarExpr, index: Mapping[int, int]) -> tuple:
    # Column ids are unique within the key, so mixed None/int positions
    # are never compared by sorted().
    return tuple(sorted((cid, index.get(cid)) for cid in expr.used_columns()))


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
