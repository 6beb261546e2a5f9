"""The translator's AST predicates and its CTE-use count walk every
expression kind through ``_expr_children``, with the same answers on
every kind: a subquery's statement is looked into only by the CTE count,
an aggregate inside a subquery is no plain aggregate, and the subquery
predicate does not look inside a window function.  What a window reads
(its argument, PARTITION BY and ORDER BY) is walked for aggregates, as
sqlite groups ``sum(sum(b)) OVER ()``; its own call is not."""

from __future__ import annotations

import pytest

from repro.sql import ast as A
from repro.sql.parser import parse
from repro.sql.translator import (
    _contains_agg,
    _contains_subquery,
    _count_cte_uses,
)

#: Reads the CTE ``c`` and aggregates, so it is a subquery, a CTE use
#: and, inside a subquery only, an aggregate.
SUB_STMT = parse("SELECT max(x) FROM c")


def _sub():
    return A.EScalarSubquery(SUB_STMT)


def _agg():
    return A.EFunc("sum", [A.EColumn("b")])


#: kind -> (build from a child factory, (contains a subquery, contains
#: an aggregate, uses of ``c``) when every child slot holds a scalar
#: subquery, the same when every child slot holds an aggregate call).
CASES = {
    A.EColumn: (lambda child: A.EColumn("a"), (False, False, 0), (False, False, 0)),
    A.ELiteral: (lambda child: A.ELiteral(1), (False, False, 0), (False, False, 0)),
    A.EStar: (lambda child: A.EStar(), (False, False, 0), (False, False, 0)),
    A.EBinary: (
        lambda child: A.EBinary("+", child(), child()),
        (True, False, 2), (False, True, 0),
    ),
    A.ENot: (lambda child: A.ENot(child()), (True, False, 1), (False, True, 0)),
    A.ENegate: (lambda child: A.ENegate(child()), (True, False, 1), (False, True, 0)),
    A.EIsNull: (lambda child: A.EIsNull(child()), (True, False, 1), (False, True, 0)),
    A.EBetween: (
        lambda child: A.EBetween(child(), child(), child()),
        (True, False, 3), (False, True, 0),
    ),
    A.ELike: (lambda child: A.ELike(child(), "a%"), (True, False, 1), (False, True, 0)),
    A.EExists: (lambda child: A.EExists(SUB_STMT), (True, False, 1), (True, False, 1)),
    A.EScalarSubquery: (lambda child: _sub(), (True, False, 1), (True, False, 1)),
    A.EFunc: (
        lambda child: A.EFunc("coalesce", [child(), child()]),
        (True, False, 2), (False, True, 0),
    ),
    # The subquery predicate does not look inside a window function.
    A.EWindow: (
        lambda child: A.EWindow(
            A.EFunc("sum", [child()]), [child()], [(child(), True)]
        ),
        (False, False, 3), (False, True, 0),
    ),
    A.ECase: (
        lambda child: A.ECase([(child(), child())], child()),
        (True, False, 3), (False, True, 0),
    ),
}

#: An IN over a value list walks its operand; an IN over a subquery is a
#: subquery, and the count reads that subquery and not the operand.
IN_CASES = {
    "values": (
        lambda child: A.EIn(child(), values=[1, 2]),
        (True, False, 1), (False, True, 0),
    ),
    "subquery": (
        lambda child: A.EIn(child(), subquery=SUB_STMT),
        (True, False, 1), (True, True, 1),
    ),
}


def _answers(expr):
    stmt = A.SelectStmt(select_items=[(expr, None)], from_items=[A.TableRef("t")])
    return (
        _contains_subquery(expr),
        _contains_agg(expr),
        _count_cte_uses(stmt, {"c"})["c"],
    )


def test_every_expression_kind_is_covered():
    def concrete(cls):
        subs = cls.__subclasses__()
        return {cls} if not subs else set().union(*map(concrete, subs))

    assert concrete(A.ExprAST) == set(CASES) | {A.EIn}


@pytest.mark.parametrize(
    "build, with_subquery, with_agg",
    list(CASES.values()) + list(IN_CASES.values()),
    ids=[k.__name__ for k in CASES] + [f"EIn-{k}" for k in IN_CASES],
)
def test_walkers_answer_per_kind(build, with_subquery, with_agg):
    assert _answers(build(_sub)) == with_subquery
    assert _answers(build(_agg)) == with_agg
