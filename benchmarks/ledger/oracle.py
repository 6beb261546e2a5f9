"""Independent row oracle: stdlib sqlite3 over the generated tables.

Every differential check already in the repository compares the system
with itself (row vs batch vs fused share one translator; Orca vs Planner
share one executor).  The ledger compares each timed statement's rows
with an engine nobody here wrote.  Statements sqlite cannot run (GROUP BY
ROLLUP) fall back to ``LegacyPlanner`` + ``ExecutionMode.ROW`` — a
different optimizer and a different executor than the measured path —
and are marked ``planner_row`` in the report.

Comparison is as a multiset, floats to ``REL_TOL`` relative (summation
order legitimately differs), and for statements with a top-level
ORDER BY the key columns are also compared position by position.
"""

from __future__ import annotations

import datetime
import re
import sqlite3
from dataclasses import dataclass

REL_TOL = 1e-6
ABS_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """The reference answer for one SQL text."""

    rows: tuple
    #: Output positions of the top-level ORDER BY keys (empty: unordered).
    order_positions: tuple
    #: ``sqlite`` or ``planner_row``.
    source: str


def _norm(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.isoformat()
    return value


def _norm_rows(rows) -> list[tuple]:
    return [tuple(_norm(v) for v in row) for row in rows]


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return False
        if isinstance(a, str) or isinstance(b, str):
            return False
        return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)
    return a == b


def _multiset_order(rows: list[tuple], float_cols: set[int]) -> list[tuple]:
    """Sort so equal rows line up across two engines: exact columns
    first, float columns (which may differ in the last digits) last."""
    width = len(rows[0]) if rows else 0
    exact = [i for i in range(width) if i not in float_cols]
    inexact = [i for i in range(width) if i in float_cols]

    def key(row):
        return tuple(
            (row[i] is None, type(row[i]).__name__ if i in exact else "",
             0 if row[i] is None else row[i])
            for i in exact + inexact
        )

    return sorted(rows, key=key)


def compare(got_rows, expected: Expected) -> str:
    """'' when ``got_rows`` match the reference, else a one-line reason."""
    got = _norm_rows(got_rows)
    want = list(expected.rows)
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    if not got:
        return ""
    if len(got[0]) != len(want[0]):
        return f"{len(got[0])} columns, expected {len(want[0])}"
    for pos in expected.order_positions:
        for i, (g, w) in enumerate(zip(got, want)):
            if not _close(g[pos], w[pos]):
                return f"row {i} out of order on column {pos}: {g[pos]!r} vs {w[pos]!r}"
    float_cols = {
        i for rows in (got, want) for row in rows
        for i, v in enumerate(row) if isinstance(v, float)
    }
    for g, w in zip(_multiset_order(got, float_cols),
                    _multiset_order(want, float_cols)):
        for i, (a, b) in enumerate(zip(g, w)):
            if not _close(a, b):
                return f"row mismatch on column {i}: {g!r} vs {w!r}"
    return ""


_ORDER_BY = re.compile(r"\bORDER\s+BY\b(.*?)(?:\bLIMIT\b.*)?$", re.I | re.S)


def _top_level_order_keys(sql: str) -> list[str]:
    """Key expressions of the statement's own ORDER BY (not one inside
    parentheses: window specs and derived tables have their own)."""
    depth = 0
    flat = []
    for ch in sql:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        flat.append(ch if depth == 0 and ch != ")" else " ")
    match = _ORDER_BY.search("".join(flat).strip())
    if match is None:
        return []
    keys = []
    for part in match.group(1).split(","):
        words = part.split()
        if words and words[-1].upper() in ("ASC", "DESC"):
            words = words[:-1]
        keys.append(" ".join(words))
    return keys


def _order_positions(sql: str, names: list[str]) -> tuple:
    """Map ORDER BY keys onto output positions.  A key that is not an
    output column fails loudly: silently skipping it would turn the
    order check off for that statement."""
    lowered = [n.lower() for n in names]
    positions = []
    for key in _top_level_order_keys(sql):
        name = key.split(".")[-1].lower()
        if name not in lowered:
            raise ValueError(
                f"ORDER BY key {key!r} is not an output column of: {sql.strip()[:80]}"
            )
        positions.append(lowered.index(name))
    return tuple(positions)


class Oracle:
    """sqlite3 holding a copy of the generated tables."""

    def __init__(self, db):
        self._db = db
        self._con = sqlite3.connect(":memory:")
        for table in db.tables():
            cols = table.column_names()
            self._con.execute(f"CREATE TABLE {table.name} ({', '.join(cols)})")
            self._con.executemany(
                f"INSERT INTO {table.name} VALUES ({','.join('?' * len(cols))})",
                _norm_rows(db.scan(table.name)),
            )

    def expected(self, sql: str) -> Expected:
        try:
            cur = self._con.execute(sql)
        except sqlite3.OperationalError:
            return self._planner_row(sql)
        names = [d[0] for d in cur.description]
        return Expected(
            rows=tuple(_norm_rows(cur.fetchall())),
            order_positions=_order_positions(sql, names),
            source="sqlite",
        )

    def _planner_row(self, sql: str) -> Expected:
        from repro import Cluster, ExecutionMode, Executor, LegacyPlanner

        planned = LegacyPlanner(self._db).optimize(sql)
        cluster = Cluster(self._db, segments=1)
        execution = Executor(
            cluster, execution_mode=ExecutionMode.ROW
        ).execute(planned.plan, planned.output_cols)
        return Expected(
            rows=tuple(_norm_rows(execution.rows)),
            order_positions=_order_positions(sql, list(planned.output_names)),
            source="planner_row",
        )

    def close(self) -> None:
        self._con.close()
