"""Schema objects: tables, columns, indexes, distribution and partitioning.

Distribution policies mirror Section 2.1 of the paper: GPDB distributes
tuples to segments by hash, replicates full copies, or gathers a table to a
single host.  Range partitioning (by a single column) backs the partition
elimination experiments of Section 7.2.2.
"""

from __future__ import annotations

import enum
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
    """Range partitioning of a table by one column."""

    column: str
    partitions: tuple[RangePartition, ...]
    #: Each partition's ``(axis lo, axis hi)``, computed once here so
    #: that :meth:`route` places only the routed value on the axis.
    bounds: tuple[tuple[float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(
            (axis_value(part.lo), axis_value(part.hi))
            for part in self.partitions
        ))

    def route(self, value: Any) -> Optional[int]:
        """Index of the first partition holding ``value`` (None if out of
        range)."""
        if value is None:
            return None
        v = axis_value(value)
        for i, (lo, hi) in enumerate(self.bounds):
            if lo <= v < hi:
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

    # ------------------------------------------------------------------
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise CatalogError(f"no column {name} in table {self.name}")

    def num_partitions(self) -> int:
        return len(self.partitioning.partitions) if self.partitioning else 1
