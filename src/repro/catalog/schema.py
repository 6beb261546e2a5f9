"""Schema objects: tables, columns, indexes, distribution and partitioning.

Distribution policies mirror Section 2.1 of the paper: GPDB distributes
tuples to segments by hash, replicates full copies, or gathers a table to a
single host.  Range partitioning (by a single column) backs the partition
elimination experiments of Section 7.2.2.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.catalog.types import DataType
from repro.catalog.statistics import axis_value
from repro.errors import CatalogError


class DistributionPolicy(enum.Enum):
    """How a table's rows are laid out across segments (Section 2.1)."""

    HASH = "hash"
    REPLICATED = "replicated"
    RANDOM = "random"


@dataclass(frozen=True)
class Column:
    """A table column."""

    name: str
    dtype: DataType
    nullable: bool = True


@dataclass(frozen=True)
class Index:
    """A single-column ordered (B-tree-style) index.

    An IndexScan over it delivers rows sorted by ``column`` (Section 3,
    property enforcement example).
    """

    name: str
    column: str


@dataclass(frozen=True)
class RangePartition:
    """One range partition [lo, hi) of a partitioned table."""

    name: str
    lo: Any
    hi: Any


@dataclass(frozen=True)
class PartitionScheme:
    """Range partitioning of a table by one column.

    The partitions are sorted and disjoint: on the histogram axis every
    ``lo`` is at most its ``hi``, which is at most the next partition's
    ``lo`` (gaps and empty ranges are allowed).  A scheme is outside
    input when it comes from a DXL dump, so construction checks this and
    raises :class:`CatalogError` otherwise.
    """

    column: str
    partitions: tuple[RangePartition, ...]
    #: The partitions' axis ``lo`` values, in order, for :meth:`route`'s
    #: bisection.
    los: tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: The partitions' axis ``hi`` values, in order.
    his: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        los = tuple(axis_value(part.lo) for part in self.partitions)
        his = tuple(axis_value(part.hi) for part in self.partitions)
        edges = [edge for pair in zip(los, his) for edge in pair]
        # ``not a <= b`` rather than ``a > b``: a NaN bound fails too.
        for i in range(len(edges) - 1):
            if not edges[i] <= edges[i + 1]:
                part = self.partitions[(i + 1) // 2]
                raise CatalogError(
                    f"partitions of {self.column} are not sorted and "
                    f"disjoint at {part.name} [{part.lo!r}, {part.hi!r})"
                )
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)

    def route(self, value: Any) -> Optional[int]:
        """Index of the partition holding ``value`` (None if out of
        range)."""
        if value is None:
            return None
        v = axis_value(value)
        i = bisect_right(self.los, v) - 1
        if i >= 0 and v < self.his[i]:
            return i
        return None


@dataclass
class Table:
    """A catalog table definition."""

    name: str
    columns: list[Column]
    distribution: DistributionPolicy = DistributionPolicy.HASH
    #: Hash distribution key column names (when distribution is HASH).
    distribution_columns: tuple[str, ...] = ()
    indexes: list[Index] = field(default_factory=list)
    partitioning: Optional[PartitionScheme] = None

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column in table {self.name}")
        # name -> position; an attribute, not a field, so ``==``,
        # ``repr``, the pickle and DXL export see only the columns.
        self._positions = {name: i for i, name in enumerate(names)}
        if self.distribution is DistributionPolicy.HASH:
            if not self.distribution_columns:
                # Default to the first column, like GPDB's implicit choice.
                self.distribution_columns = (self.columns[0].name,)
            for col in self.distribution_columns:
                if col not in names:
                    raise CatalogError(
                        f"distribution column {col} not in table {self.name}"
                    )
        if self.partitioning and self.partitioning.column not in names:
            raise CatalogError(
                f"partition column {self.partitioning.column} "
                f"not in table {self.name}"
            )
        for index in self.indexes:
            if index.column not in names:
                raise CatalogError(
                    f"index column {index.column} not in table {self.name}"
                )

    def __getstate__(self):
        # Derived from the columns: rebuilt on unpickle, never shipped.
        state = dict(self.__dict__)
        del state["_positions"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._positions = {c.name: i for i, c in enumerate(self.columns)}

    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise CatalogError(f"no column {name} in table {self.name}") from None

    def num_partitions(self) -> int:
        return len(self.partitioning.partitions) if self.partitioning else 1
