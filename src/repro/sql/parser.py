"""Recursive-descent SQL parser."""

from __future__ import annotations

from typing import Optional

from repro.errors import SQLError
from repro.sql.ast import (
    EBetween,
    EBinary,
    ECase,
    EColumn,
    EExists,
    EFunc,
    EIn,
    EIsNull,
    ELike,
    ELiteral,
    ENegate,
    ENot,
    EScalarSubquery,
    EStar,
    EWindow,
    ExprAST,
    FromItem,
    JoinItem,
    JoinType,
    SelectStmt,
    SetOp,
    SubqueryRef,
    TableRef,
)
from repro.sql.lexer import Lexer, Token, parse_date_literal

AGG_FUNCS = {"count", "sum", "avg", "min", "max"}
WINDOW_ONLY_FUNCS = {"rank", "dense_rank", "row_number"}


def parse(sql: str) -> SelectStmt:
    """Parse one SELECT statement (optionally ending with ';')."""
    parser = _Parser(Lexer(sql).tokens())
    stmt = parser.parse_statement()
    parser.accept_sym(";")
    parser.expect_eof()
    return stmt


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.i]
        if token.kind != "eof":
            self.i += 1
        return token

    def accept_kw(self, *names: str) -> Optional[Token]:
        if self.peek().is_kw(*names):
            return self.advance()
        return None

    def accept_sym(self, *symbols: str) -> Optional[Token]:
        if self.peek().is_sym(*symbols):
            return self.advance()
        return None

    def expect_kw(self, *names: str) -> Token:
        token = self.accept_kw(*names)
        if token is None:
            raise SQLError(
                f"expected {'/'.join(names).upper()} near position "
                f"{self.peek().pos}, got {self.peek().value!r}"
            )
        return token

    def expect_sym(self, symbol: str) -> Token:
        token = self.accept_sym(symbol)
        if token is None:
            raise SQLError(
                f"expected {symbol!r} near position {self.peek().pos}, "
                f"got {self.peek().value!r}"
            )
        return token

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind != "ident":
            raise SQLError(
                f"expected identifier near position {token.pos}, "
                f"got {token.value!r}"
            )
        self.advance()
        return token.value

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise SQLError(
                f"trailing input near position {self.peek().pos}: "
                f"{self.peek().value!r}"
            )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> SelectStmt:
        ctes: list[tuple[str, SelectStmt]] = []
        if self.accept_kw("with"):
            while True:
                name = self.expect_ident()
                self.expect_kw("as")
                self.expect_sym("(")
                ctes.append((name, self.parse_statement()))
                self.expect_sym(")")
                if not self.accept_sym(","):
                    break
        stmt = self.parse_compound_select()
        stmt.ctes = ctes + stmt.ctes
        return stmt

    def parse_compound_select(self) -> SelectStmt:
        stmt = self.parse_simple_select()
        if (stmt.order_by or stmt.limit is not None) and self.peek().is_kw(
            "union", "intersect", "except"
        ):
            # A parenthesized head keeps its own ORDER BY / LIMIT: read
            # it as a derived table, so they do not bind to the compound.
            stmt = SelectStmt(
                select_items=[(EStar(), None)],
                from_items=[SubqueryRef(stmt, "_head")],
            )
        while self.peek().is_kw("union", "intersect", "except"):
            op_token = self.advance()
            op = SetOp(op_token.value)
            all_flag = bool(self.accept_kw("all"))
            right = self.parse_simple_select()
            stmt.set_ops.append((op, all_flag, right))
        # A bare branch takes no ORDER BY / LIMIT: a trailing one binds
        # to the whole compound (a parenthesized branch keeps its own).
        self._parse_order_limit(stmt)
        return stmt

    def parse_simple_select(self) -> SelectStmt:
        if self.accept_sym("("):
            stmt = self.parse_statement()
            self.expect_sym(")")
            return stmt
        self.expect_kw("select")
        stmt = SelectStmt()
        stmt.distinct = bool(self.accept_kw("distinct"))
        self.accept_kw("all")
        stmt.select_items = self._parse_select_list()
        if self.accept_kw("from"):
            stmt.from_items = self._parse_from_list()
        if self.accept_kw("where"):
            stmt.where = self.parse_expr()
        if self.accept_kw("group"):
            self.expect_kw("by")
            if self.peek().kind == "ident" and \
                    str(self.peek().value).lower() == "rollup":
                self.advance()
                stmt.rollup = True
                self.expect_sym("(")
                stmt.group_by.append(self.parse_expr())
                while self.accept_sym(","):
                    stmt.group_by.append(self.parse_expr())
                self.expect_sym(")")
            else:
                stmt.group_by.append(self.parse_expr())
                while self.accept_sym(","):
                    stmt.group_by.append(self.parse_expr())
        if self.accept_kw("having"):
            stmt.having = self.parse_expr()
        return stmt

    def _parse_order_limit(self, stmt: SelectStmt) -> None:
        if self.peek().is_kw("order") and not stmt.order_by:
            self.advance()
            self.expect_kw("by")
            while True:
                expr = self.parse_expr()
                asc = True
                if self.accept_kw("desc"):
                    asc = False
                else:
                    self.accept_kw("asc")
                stmt.order_by.append((expr, asc))
                if not self.accept_sym(","):
                    break
        if self.peek().is_kw("limit") and stmt.limit is None:
            self.advance()
            token = self.advance()
            if token.kind != "number":
                raise SQLError("LIMIT expects a number")
            stmt.limit = int(token.value)
            if self.accept_kw("offset"):
                off = self.advance()
                if off.kind != "number":
                    raise SQLError("OFFSET expects a number")
                stmt.offset = int(off.value)

    def _parse_select_list(self) -> list[tuple[ExprAST, Optional[str]]]:
        items = []
        while True:
            if self.peek().is_sym("*"):
                self.advance()
                items.append((EStar(), None))
            elif (
                self.peek().kind == "ident"
                and self.peek(1).is_sym(".")
                and self.peek(2).is_sym("*")
            ):
                qualifier = self.expect_ident()
                self.advance()
                self.advance()
                items.append((EStar(qualifier), None))
            else:
                expr = self.parse_expr()
                alias = None
                if self.accept_kw("as"):
                    alias = self.expect_ident()
                elif self.peek().kind == "ident":
                    alias = self.expect_ident()
                items.append((expr, alias))
            if not self.accept_sym(","):
                return items

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_from_list(self) -> list[FromItem]:
        items = [self._parse_join_tree()]
        while self.accept_sym(","):
            items.append(self._parse_join_tree())
        return items

    def _parse_join_tree(self) -> FromItem:
        left = self._parse_from_primary()
        while True:
            kind = None
            if self.accept_kw("join") or self.peek().is_kw("inner"):
                if self.peek().is_kw("inner"):
                    self.advance()
                    self.expect_kw("join")
                kind = JoinType.INNER
            elif self.peek().is_kw("left"):
                self.advance()
                self.accept_kw("outer")
                self.expect_kw("join")
                kind = JoinType.LEFT
            elif self.peek().is_kw("right"):
                self.advance()
                self.accept_kw("outer")
                self.expect_kw("join")
                kind = JoinType.RIGHT
            elif self.peek().is_kw("cross"):
                self.advance()
                self.expect_kw("join")
                kind = JoinType.CROSS
            else:
                return left
            right = self._parse_from_primary()
            on = None
            if kind is not JoinType.CROSS:
                self.expect_kw("on")
                on = self.parse_expr()
            left = JoinItem(kind, left, right, on)

    def _parse_from_primary(self) -> FromItem:
        if self.accept_sym("("):
            if self.peek().is_kw("select", "with"):
                sub = self.parse_statement()
                self.expect_sym(")")
                self.accept_kw("as")
                alias = self.expect_ident()
                return SubqueryRef(sub, alias)
            inner = self._parse_join_tree()
            self.expect_sym(")")
            return inner
        name = self.expect_ident()
        alias = None
        if self.accept_kw("as"):
            alias = self.expect_ident()
        elif self.peek().kind == "ident":
            alias = self.expect_ident()
        return TableRef(name, alias)

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expr(self) -> ExprAST:
        return self._parse_or()

    def _parse_or(self) -> ExprAST:
        left = self._parse_and()
        while self.accept_kw("or"):
            left = EBinary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ExprAST:
        left = self._parse_not()
        while self.accept_kw("and"):
            left = EBinary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ExprAST:
        if self.accept_kw("not"):
            return ENot(self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ExprAST:
        if self.peek().is_kw("exists"):
            self.advance()
            self.expect_sym("(")
            sub = self.parse_statement()
            self.expect_sym(")")
            return EExists(sub)
        left = self._parse_additive()
        while True:
            negated = False
            if self.peek().is_kw("not") and self.peek(1).is_kw(
                "in", "like", "between"
            ):
                self.advance()
                negated = True
            token = self.peek()
            if token.is_sym("=", "<>", "<", "<=", ">", ">="):
                self.advance()
                right = self._parse_additive()
                left = EBinary(token.value, left, right)
            elif token.is_kw("is"):
                self.advance()
                neg = bool(self.accept_kw("not"))
                self.expect_kw("null")
                left = EIsNull(left, negated=neg)
            elif token.is_kw("between"):
                self.advance()
                lo = self._parse_additive()
                self.expect_kw("and")
                hi = self._parse_additive()
                left = EBetween(left, lo, hi, negated=negated)
            elif token.is_kw("like"):
                self.advance()
                pattern = self.advance()
                if pattern.kind != "string":
                    raise SQLError("LIKE expects a string pattern")
                left = ELike(left, pattern.value, negated=negated)
            elif token.is_kw("in"):
                self.advance()
                self.expect_sym("(")
                if self.peek().is_kw("select", "with"):
                    sub = self.parse_statement()
                    self.expect_sym(")")
                    left = EIn(left, subquery=sub, negated=negated)
                else:
                    values = [self._parse_literal_value()]
                    while self.accept_sym(","):
                        values.append(self._parse_literal_value())
                    self.expect_sym(")")
                    left = EIn(left, values=values, negated=negated)
            else:
                return left

    def _parse_literal_value(self):
        token = self.advance()
        if token.kind in ("number", "string"):
            return token.value
        if token.is_kw("date"):
            string = self.advance()
            if string.kind != "string":
                raise SQLError("DATE expects a string literal")
            return parse_date_literal(string.value)
        if token.is_sym("-") and self.peek().kind == "number":
            return -self.advance().value
        raise SQLError(f"expected literal at position {token.pos}")

    def _parse_additive(self) -> ExprAST:
        left = self._parse_multiplicative()
        while self.peek().is_sym("+", "-"):
            op = self.advance().value
            left = EBinary(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ExprAST:
        left = self._parse_unary()
        while self.peek().is_sym("*", "/"):
            op = self.advance().value
            left = EBinary(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> ExprAST:
        if self.accept_sym("-"):
            return ENegate(self._parse_unary())
        self.accept_sym("+")
        return self._parse_primary()

    def _parse_primary(self) -> ExprAST:
        token = self.peek()
        if token.kind == "number" or token.kind == "string":
            self.advance()
            return ELiteral(token.value)
        if token.is_kw("true"):
            self.advance()
            return ELiteral(True)
        if token.is_kw("false"):
            self.advance()
            return ELiteral(False)
        if token.is_kw("null"):
            self.advance()
            return ELiteral(None)
        if token.is_kw("date"):
            self.advance()
            string = self.advance()
            if string.kind != "string":
                raise SQLError("DATE expects a string literal")
            return ELiteral(parse_date_literal(string.value))
        if token.is_kw("case"):
            return self._parse_case()
        if token.is_sym("("):
            self.advance()
            if self.peek().is_kw("select", "with"):
                sub = self.parse_statement()
                self.expect_sym(")")
                return EScalarSubquery(sub)
            expr = self.parse_expr()
            self.expect_sym(")")
            return expr
        if token.kind == "ident":
            return self._parse_ident_expr()
        raise SQLError(
            f"unexpected token {token.value!r} at position {token.pos}"
        )

    def _parse_case(self) -> ExprAST:
        self.expect_kw("case")
        whens = []
        while self.accept_kw("when"):
            cond = self.parse_expr()
            self.expect_kw("then")
            result = self.parse_expr()
            whens.append((cond, result))
        else_ = None
        if self.accept_kw("else"):
            else_ = self.parse_expr()
        self.expect_kw("end")
        return ECase(whens, else_)

    def _parse_ident_expr(self) -> ExprAST:
        name = self.expect_ident()
        if self.peek().is_sym("("):
            return self._parse_call(name)
        if self.accept_sym("."):
            column = self.expect_ident()
            return EColumn(column, qualifier=name)
        return EColumn(name)

    def _parse_call(self, name: str) -> ExprAST:
        self.expect_sym("(")
        func_name = name.lower()
        distinct = bool(self.accept_kw("distinct"))
        star = False
        args: list[ExprAST] = []
        if self.accept_sym("*"):
            star = True
        elif not self.peek().is_sym(")"):
            args.append(self.parse_expr())
            while self.accept_sym(","):
                args.append(self.parse_expr())
        self.expect_sym(")")
        func = EFunc(func_name, args, distinct=distinct, star=star)
        if self.accept_kw("over"):
            return self._parse_over(func)
        if func_name in WINDOW_ONLY_FUNCS:
            raise SQLError(f"{func_name} requires an OVER clause")
        return func

    def _parse_over(self, func: EFunc) -> EWindow:
        self.expect_sym("(")
        partition: list[ExprAST] = []
        order: list[tuple[ExprAST, bool]] = []
        if self.accept_kw("partition"):
            self.expect_kw("by")
            partition.append(self.parse_expr())
            while self.accept_sym(","):
                partition.append(self.parse_expr())
        if self.accept_kw("order"):
            self.expect_kw("by")
            while True:
                expr = self.parse_expr()
                asc = True
                if self.accept_kw("desc"):
                    asc = False
                else:
                    self.accept_kw("asc")
                order.append((expr, asc))
                if not self.accept_sym(","):
                    break
        self.expect_sym(")")
        return EWindow(func, partition, order)
