"""SQL abstract syntax tree.

Contract: an AST returned by :func:`repro.sql.parser.parse` is never
mutated.  The translator, the Planner, ``fingerprint`` and everything
else that is handed one reads it and builds its own objects, so one AST
may be translated any number of times, and the plan cache's statement
front (:mod:`repro.plancache`) keeps the AST of a text and hands the same
object to every later optimization of that text.
``tests/test_statement_front.py`` checks it: the pickle of every stored
AST is byte-equal before and after optimize, execute, EXPLAIN ANALYZE, a
feedback ingest and a Planner fallback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

class ExprAST:
    """Base class of expression AST nodes."""


@dataclass
class EColumn(ExprAST):
    name: str
    qualifier: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass
class ELiteral(ExprAST):
    value: Any


@dataclass
class EStar(ExprAST):
    qualifier: Optional[str] = None


@dataclass
class EBinary(ExprAST):
    op: str  # comparison, arithmetic, 'and', 'or'
    left: ExprAST
    right: ExprAST


@dataclass
class ENot(ExprAST):
    arg: ExprAST


@dataclass
class ENegate(ExprAST):
    arg: ExprAST


@dataclass
class EIsNull(ExprAST):
    arg: ExprAST
    negated: bool = False


@dataclass
class EBetween(ExprAST):
    arg: ExprAST
    lo: ExprAST
    hi: ExprAST
    negated: bool = False


@dataclass
class ELike(ExprAST):
    arg: ExprAST
    pattern: str
    negated: bool = False


@dataclass
class EIn(ExprAST):
    arg: ExprAST
    #: Either a literal value list or a subquery.
    values: Optional[list[Any]] = None
    subquery: Optional["SelectStmt"] = None
    negated: bool = False


@dataclass
class EExists(ExprAST):
    subquery: "SelectStmt"
    negated: bool = False


@dataclass
class EScalarSubquery(ExprAST):
    subquery: "SelectStmt"


@dataclass
class EFunc(ExprAST):
    name: str
    args: list[ExprAST]
    distinct: bool = False
    star: bool = False  # count(*)


@dataclass
class EWindow(ExprAST):
    func: EFunc
    partition_by: list[ExprAST] = field(default_factory=list)
    order_by: list[tuple[ExprAST, bool]] = field(default_factory=list)


@dataclass
class ECase(ExprAST):
    whens: list[tuple[ExprAST, ExprAST]]
    else_: Optional[ExprAST] = None


# ----------------------------------------------------------------------
# FROM items
# ----------------------------------------------------------------------

class FromItem:
    """Base class of FROM clause items."""


@dataclass
class TableRef(FromItem):
    name: str
    alias: Optional[str] = None

    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    subquery: "SelectStmt"
    alias: str


class JoinType(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    RIGHT = "right"
    CROSS = "cross"


@dataclass
class JoinItem(FromItem):
    kind: JoinType
    left: FromItem
    right: FromItem
    on: Optional[ExprAST] = None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------

class SetOp(enum.Enum):
    UNION = "union"
    INTERSECT = "intersect"
    EXCEPT = "except"


@dataclass
class SelectStmt:
    """A (possibly compound) SELECT statement."""

    select_items: list[tuple[ExprAST, Optional[str]]] = field(default_factory=list)
    distinct: bool = False
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[ExprAST] = None
    group_by: list[ExprAST] = field(default_factory=list)
    #: GROUP BY ROLLUP(...): aggregate at every prefix of group_by.
    rollup: bool = False
    having: Optional[ExprAST] = None
    order_by: list[tuple[ExprAST, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0
    ctes: list[tuple[str, "SelectStmt"]] = field(default_factory=list)
    #: Compound tail: (set op, ALL?, right-hand statement).
    set_ops: list[tuple[SetOp, bool, "SelectStmt"]] = field(default_factory=list)
