"""Minimal SQL type system shared by the catalog, binder and executor."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta
from typing import Any


@dataclass(frozen=True)
class DataType:
    """A SQL data type.

    ``width`` is the byte width the cost model charges per value; it also
    feeds the simulated interconnect traffic accounting in the executor.
    """

    name: str
    width: int
    numeric: bool = False
    ordered: bool = True

    def __str__(self) -> str:
        return self.name


BOOL = DataType("bool", 1, numeric=False)
INT = DataType("int4", 4, numeric=True)
BIGINT = DataType("int8", 8, numeric=True)
FLOAT = DataType("float8", 8, numeric=True)
DECIMAL = DataType("decimal", 8, numeric=True)
TEXT = DataType("text", 16, numeric=False)
DATE = DataType("date", 4, numeric=False)

#: Lookup by name, used by the DXL parser and the SQL binder.
BY_NAME = {
    t.name: t for t in (BOOL, INT, BIGINT, FLOAT, DECIMAL, TEXT, DATE)
}

_EPOCH = date(1990, 1, 1)


def type_of_literal(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python literal."""
    if isinstance(value, bool):
        return BOOL
    if isinstance(value, int):
        return BIGINT if abs(value) > 2**31 else INT
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, date):
        return DATE
    return TEXT


def date_to_ordinal(value: date) -> int:
    """Map a date onto an integer axis for histogram arithmetic."""
    return (value - _EPOCH).days


def ordinal_to_date(ordinal: int) -> date:
    """Inverse of :func:`date_to_ordinal`."""
    return _EPOCH + timedelta(days=int(ordinal))


def sort_key(value: Any) -> Any:
    """Total-order key tolerant of NULLs (None sorts first)."""
    return (value is not None, value)
