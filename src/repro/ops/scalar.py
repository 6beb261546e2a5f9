"""Scalar expressions: column references, literals, predicates, aggregates.

Scalar expressions appear inside operators (join conditions, filter
predicates, project lists).  They are immutable trees supporting:

- ``key()``: a stable, hashable fingerprint used by the Memo's duplicate
  detection (Section 4.1, step 1);
- ``used_columns()``: the set of referenced column ids, feeding scalar
  property derivation (Section 3, Property Enforcement);
- ``evaluate(env)``: SQL three-valued-logic evaluation in the simulated
  executor (``env`` maps column id -> value, ``None`` = NULL);
- ``substitute(mapping)``: column remapping, used when inlining CTEs and
  when decorrelating subqueries.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.catalog.types import BOOL, DataType, FLOAT, INT, TEXT, type_of_literal
from repro.interning import KeyCached, intern_key


@dataclass(frozen=True)
class ColRef:
    """A uniquely numbered column produced somewhere in a plan.

    Equality and hashing are by ``id`` only: two ColRefs with the same id
    denote the same column regardless of display name.
    """

    id: int
    name: str = field(compare=False)
    dtype: DataType = field(compare=False)

    def __str__(self) -> str:
        return f"{self.name}#{self.id}"


class ColumnFactory:
    """Issues fresh :class:`ColRef` ids within an optimization session."""

    def __init__(self) -> None:
        self._counter = 0
        self._by_id: dict[int, ColRef] = {}

    def next(self, name: str, dtype: DataType) -> ColRef:
        ref = ColRef(self._counter, name, dtype)
        self._counter += 1
        self._by_id[ref.id] = ref
        return ref

    def register(self, ref: ColRef) -> ColRef:
        """Adopt an externally created ColRef (e.g. parsed from DXL),
        keeping future ids fresh."""
        self._by_id[ref.id] = ref
        self._counter = max(self._counter, ref.id + 1)
        return ref

    def get(self, col_id: int) -> ColRef:
        return self._by_id[col_id]

    def copy_of(self, ref: ColRef) -> ColRef:
        """A fresh column with the same name/type (CTE consumer remapping)."""
        return self.next(ref.name, ref.dtype)


class ScalarExpr(KeyCached):
    """Base class for scalar expression nodes."""

    children: tuple["ScalarExpr", ...] = ()
    #: Lazily populated per-instance interned key (class default = unset).
    _cached_key = None

    def __init_subclass__(cls, **kwargs):
        """Wrap each subclass's ``key()`` with caching + interning.

        Expressions are immutable, so the fingerprint can be computed
        once per instance and interned process-wide; every subclass gets
        this for free without touching its ``key()`` definition.
        """
        super().__init_subclass__(**kwargs)
        raw = cls.__dict__.get("key")
        if raw is not None and not getattr(raw, "_interning_wrapper", False):

            def key(self, _raw=raw):
                cached = self._cached_key
                if cached is None:
                    cached = self._cached_key = intern_key(_raw(self))
                return cached

            key._interning_wrapper = True
            key.__doc__ = raw.__doc__
            cls.key = key

    #: Compiled row closures are unpicklable locals: derived state too.
    _UNPICKLED = ("_row_cache", "_cached_key")

    @property
    def dtype(self) -> DataType:
        raise NotImplementedError

    def key(self) -> tuple:
        """Stable hashable fingerprint of the expression tree."""
        raise NotImplementedError

    def used_columns(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for child in self.children:
            out |= child.used_columns()
        return out

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        raise NotImplementedError

    def substitute(self, mapping: Mapping[int, "ScalarExpr"]) -> "ScalarExpr":
        """Replace column references per ``mapping`` (id -> expression)."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, ScalarExpr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class ColRefExpr(ScalarExpr):
    """Reference to a column by :class:`ColRef`."""

    def __init__(self, ref: ColRef):
        self.ref = ref

    @property
    def dtype(self) -> DataType:
        return self.ref.dtype

    def key(self) -> tuple:
        return ("col", self.ref.id)

    def used_columns(self) -> frozenset[int]:
        return frozenset({self.ref.id})

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        return env[self.ref.id]

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return mapping.get(self.ref.id, self)

    def __repr__(self) -> str:
        return str(self.ref)


class Literal(ScalarExpr):
    """A constant value (``None`` = NULL)."""

    def __init__(self, value: Any, dtype: Optional[DataType] = None):
        self.value = value
        self._dtype = dtype or type_of_literal(value)

    @property
    def dtype(self) -> DataType:
        return self._dtype

    def key(self) -> tuple:
        return ("lit", self._dtype.name, self.value)

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        return self.value

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return self

    def __repr__(self) -> str:
        return repr(self.value)


_CMP_FUNCS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_CMP_FLIP = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Comparison(ScalarExpr):
    """Binary comparison with SQL NULL semantics (NULL operand -> NULL)."""

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr):
        if op not in _CMP_FUNCS:
            raise ValueError(f"unknown comparison {op}")
        self.op = op
        self.left = left
        self.right = right
        self.children = (left, right)

    @property
    def dtype(self) -> DataType:
        return BOOL

    def key(self) -> tuple:
        return ("cmp", self.op, self.left.key(), self.right.key())

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if a is None or b is None:
            return None
        return _CMP_FUNCS[self.op](a, b)

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return Comparison(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def flipped(self) -> "Comparison":
        """The same predicate with operands swapped (a < b -> b > a)."""
        return Comparison(_CMP_FLIP[self.op], self.right, self.left)

    def is_equality(self) -> bool:
        return self.op == "="

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolExpr(ScalarExpr):
    """AND / OR / NOT with three-valued logic."""

    AND, OR, NOT = "and", "or", "not"

    def __init__(self, op: str, args: Sequence[ScalarExpr]):
        if op not in (self.AND, self.OR, self.NOT):
            raise ValueError(f"unknown boolean op {op}")
        if op == self.NOT and len(args) != 1:
            raise ValueError("NOT takes exactly one argument")
        self.op = op
        self.children = tuple(args)

    @property
    def dtype(self) -> DataType:
        return BOOL

    def key(self) -> tuple:
        return ("bool", self.op, tuple(c.key() for c in self.children))

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        if self.op == self.NOT:
            v = self.children[0].evaluate(env)
            return None if v is None else (not v)
        saw_null = False
        if self.op == self.AND:
            for child in self.children:
                v = child.evaluate(env)
                if v is False:
                    return False
                if v is None:
                    saw_null = True
            return None if saw_null else True
        for child in self.children:
            v = child.evaluate(env)
            if v is True:
                return True
            if v is None:
                saw_null = True
        return None if saw_null else False

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return BoolExpr(self.op, [c.substitute(mapping) for c in self.children])

    def __repr__(self) -> str:
        if self.op == self.NOT:
            return f"NOT {self.children[0]!r}"
        sep = f" {self.op.upper()} "
        return "(" + sep.join(repr(c) for c in self.children) + ")"


_ARITH_FUNCS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: (a / b) if b else None,
}


class Arith(ScalarExpr):
    """Binary arithmetic (+, -, *, /) with NULL propagation."""

    def __init__(self, op: str, left: ScalarExpr, right: ScalarExpr):
        if op not in _ARITH_FUNCS:
            raise ValueError(f"unknown arithmetic op {op}")
        self.op = op
        self.left = left
        self.right = right
        self.children = (left, right)

    @property
    def dtype(self) -> DataType:
        if self.op == "/":
            return FLOAT
        # One read of the left operand: two per level cost 2^depth on
        # a left-deep chain.
        left = self.left.dtype
        return left if left.numeric else self.right.dtype

    def key(self) -> tuple:
        return ("arith", self.op, self.left.key(), self.right.key())

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if a is None or b is None:
            return None
        return _ARITH_FUNCS[self.op](a, b)

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return Arith(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class IsNull(ScalarExpr):
    """``expr IS [NOT] NULL`` (never returns NULL itself)."""

    def __init__(self, arg: ScalarExpr, negated: bool = False):
        self.arg = arg
        self.negated = negated
        self.children = (arg,)

    @property
    def dtype(self) -> DataType:
        return BOOL

    def key(self) -> tuple:
        return ("isnull", self.negated, self.arg.key())

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        is_null = self.arg.evaluate(env) is None
        return (not is_null) if self.negated else is_null

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return IsNull(self.arg.substitute(mapping), self.negated)

    def __repr__(self) -> str:
        return f"({self.arg!r} IS {'NOT ' if self.negated else ''}NULL)"


class InList(ScalarExpr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    def __init__(self, arg: ScalarExpr, values: Sequence[Any], negated: bool = False):
        self.arg = arg
        self.values = tuple(values)
        self.negated = negated
        self.children = (arg,)

    @property
    def dtype(self) -> DataType:
        return BOOL

    def key(self) -> tuple:
        return ("inlist", self.negated, self.arg.key(), self.values)

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        v = self.arg.evaluate(env)
        if v is None:
            return None
        hit = v in self.values
        return (not hit) if self.negated else hit

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return InList(self.arg.substitute(mapping), self.values, self.negated)

    def __repr__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.arg!r} {neg}IN {self.values!r})"


class LikeExpr(ScalarExpr):
    """``expr LIKE pattern`` with % and _ wildcards."""

    def __init__(self, arg: ScalarExpr, pattern: str, negated: bool = False):
        self.arg = arg
        self.pattern = pattern
        self.negated = negated
        self.children = (arg,)
        regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
        self._regex = re.compile(f"^{regex}$")

    @property
    def dtype(self) -> DataType:
        return BOOL

    def key(self) -> tuple:
        return ("like", self.negated, self.arg.key(), self.pattern)

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        v = self.arg.evaluate(env)
        if v is None:
            return None
        hit = bool(self._regex.match(str(v)))
        return (not hit) if self.negated else hit

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return LikeExpr(self.arg.substitute(mapping), self.pattern, self.negated)

    def __repr__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"({self.arg!r} {neg}LIKE {self.pattern!r})"


class CaseExpr(ScalarExpr):
    """``CASE WHEN c1 THEN r1 ... ELSE e END``."""

    def __init__(
        self,
        whens: Sequence[tuple[ScalarExpr, ScalarExpr]],
        else_: Optional[ScalarExpr] = None,
    ):
        self.whens = tuple(whens)
        self.else_ = else_ if else_ is not None else Literal(None, TEXT)
        kids: list[ScalarExpr] = []
        for cond, result in self.whens:
            kids.extend((cond, result))
        kids.append(self.else_)
        self.children = tuple(kids)

    @property
    def dtype(self) -> DataType:
        if self.whens:
            return self.whens[0][1].dtype
        return self.else_.dtype

    def key(self) -> tuple:
        return (
            "case",
            tuple((c.key(), r.key()) for c, r in self.whens),
            self.else_.key(),
        )

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        for cond, result in self.whens:
            if cond.evaluate(env) is True:
                return result.evaluate(env)
        return self.else_.evaluate(env)

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return CaseExpr(
            [(c.substitute(mapping), r.substitute(mapping)) for c, r in self.whens],
            self.else_.substitute(mapping),
        )

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {r!r}" for c, r in self.whens)
        return f"CASE {parts} ELSE {self.else_!r} END"


AGG_NAMES = ("count", "sum", "avg", "min", "max")


class AggFunc(ScalarExpr):
    """An aggregate call inside a GbAgg operator's project list.

    ``arg`` is ``None`` for ``count(*)``.  AggFuncs never evaluate per row;
    the executor accumulates them over groups.
    """

    def __init__(self, name: str, arg: Optional[ScalarExpr], distinct: bool = False):
        name = name.lower()
        if name not in AGG_NAMES:
            raise ValueError(f"unknown aggregate {name}")
        self.name = name
        self.arg = arg
        self.distinct = distinct
        self.children = (arg,) if arg is not None else ()

    @property
    def dtype(self) -> DataType:
        if self.name == "count":
            return INT
        if self.name == "avg":
            return FLOAT
        return self.arg.dtype if self.arg is not None else INT

    def key(self) -> tuple:
        return (
            "agg",
            self.name,
            self.distinct,
            self.arg.key() if self.arg is not None else None,
        )

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        raise TypeError("aggregates are evaluated by the GbAgg executor")

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        return AggFunc(
            self.name,
            self.arg.substitute(mapping) if self.arg is not None else None,
            self.distinct,
        )

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name}({distinct}{inner})"


WINDOW_NAMES = ("rank", "dense_rank", "row_number", "sum", "avg", "count", "min", "max")


class WindowFunc(ScalarExpr):
    """A window function call with its PARTITION BY / ORDER BY clauses."""

    def __init__(
        self,
        name: str,
        arg: Optional[ScalarExpr],
        partition_by: Sequence[ColRef],
        order_by: Sequence[tuple[ColRef, bool]],
    ):
        name = name.lower()
        if name not in WINDOW_NAMES:
            raise ValueError(f"unknown window function {name}")
        self.name = name
        self.arg = arg
        self.partition_by = tuple(partition_by)
        self.order_by = tuple(order_by)
        self.children = (arg,) if arg is not None else ()

    @property
    def dtype(self) -> DataType:
        if self.name in ("rank", "dense_rank", "row_number", "count"):
            return INT
        if self.name == "avg":
            return FLOAT
        return self.arg.dtype if self.arg is not None else INT

    def key(self) -> tuple:
        return (
            "win",
            self.name,
            self.arg.key() if self.arg is not None else None,
            tuple(c.id for c in self.partition_by),
            tuple((c.id, asc) for c, asc in self.order_by),
        )

    def used_columns(self) -> frozenset[int]:
        cols = set(c.id for c in self.partition_by)
        cols |= {c.id for c, _asc in self.order_by}
        if self.arg is not None:
            cols |= self.arg.used_columns()
        return frozenset(cols)

    def evaluate(self, env: Mapping[int, Any]) -> Any:
        raise TypeError("window functions are evaluated by the Window executor")

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> ScalarExpr:
        def remap(ref: ColRef) -> ColRef:
            repl = mapping.get(ref.id)
            if isinstance(repl, ColRefExpr):
                return repl.ref
            return ref

        return WindowFunc(
            self.name,
            self.arg.substitute(mapping) if self.arg is not None else None,
            [remap(c) for c in self.partition_by],
            [(remap(c), asc) for c, asc in self.order_by],
        )

    def __repr__(self) -> str:
        inner = "" if self.arg is None else repr(self.arg)
        return f"{self.name}({inner}) OVER (...)"


# ----------------------------------------------------------------------
# Predicate utilities
# ----------------------------------------------------------------------

def conjuncts(pred: Optional[ScalarExpr]) -> list[ScalarExpr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if pred is None:
        return []
    if isinstance(pred, BoolExpr) and pred.op == BoolExpr.AND:
        out: list[ScalarExpr] = []
        for child in pred.children:
            out.extend(conjuncts(child))
        return out
    return [pred]


def make_conj(preds: Iterable[ScalarExpr]) -> Optional[ScalarExpr]:
    """Rebuild an AND tree from conjuncts (None if empty, bare if single)."""
    preds = list(preds)
    if not preds:
        return None
    if len(preds) == 1:
        return preds[0]
    return BoolExpr(BoolExpr.AND, preds)


def equi_join_pairs(
    pred: Optional[ScalarExpr],
    left_cols: frozenset[int],
    right_cols: frozenset[int],
) -> list[tuple[ColRef, ColRef]]:
    """Extract (left_col, right_col) pairs from equality conjuncts.

    Only simple ``col = col`` conjuncts qualify; each pair is oriented so
    the first column comes from ``left_cols``.
    """
    pairs: list[tuple[ColRef, ColRef]] = []
    for conj in conjuncts(pred):
        if not (isinstance(conj, Comparison) and conj.op == "="):
            continue
        lhs, rhs = conj.left, conj.right
        if not (isinstance(lhs, ColRefExpr) and isinstance(rhs, ColRefExpr)):
            continue
        if lhs.ref.id in left_cols and rhs.ref.id in right_cols:
            pairs.append((lhs.ref, rhs.ref))
        elif rhs.ref.id in left_cols and lhs.ref.id in right_cols:
            pairs.append((rhs.ref, lhs.ref))
    return pairs
