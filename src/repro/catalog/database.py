"""An in-memory database: catalog, row storage and ANALYZE.

This is the "database system" box of Figure 2.  It owns schema objects,
stores rows (per range partition for partitioned tables), computes
histogram statistics, and bumps per-object versions so that Orca's plan
cache can invalidate stale entries (Section 4.1, Mdid versioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from repro.catalog.schema import Table
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import CatalogError

Row = tuple


@dataclass
class _Stored:
    """Internal storage record for one table."""

    table: Table
    #: Rows per partition (single partition for unpartitioned tables).
    partitions: list[list[Row]] = field(default_factory=list)
    stats: Optional[TableStats] = None
    version: int = 1
    #: ``Database.changes`` as of the last insert / truncate (or the
    #: table's creation): moves only when the rows do.
    data_version: int = 0


class Database:
    """A named collection of tables with rows and statistics."""

    def __init__(self, name: str = "db", system_id: str = "GPDB"):
        self.name = name
        #: Database system identifier, the first component of every Mdid.
        self.system_id = system_id
        self._tables: dict[str, _Stored] = {}
        #: Catalog-wide change counter: moves with every DDL, DML, ANALYZE
        #: and ``set_stats``, so "has any table's version moved?" is one
        #: integer comparison.
        self.changes = 0

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name} already exists")
        nparts = table.num_partitions()
        self.changes += 1
        self._tables[table.name] = _Stored(
            table=table, partitions=[[] for _ in range(nparts)],
            data_version=self.changes,
        )

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> Table:
        return self._stored(name).table

    def tables(self) -> list[Table]:
        return [s.table for s in self._tables.values()]

    def version(self, name: str) -> int:
        """Current metadata version of a table (bumped by DDL/ANALYZE)."""
        return self._stored(name).version

    def data_version(self, name: str) -> int:
        """Version of a table's *rows*: moved by ``insert`` / ``truncate``
        only, never by ``analyze`` / ``set_stats``, and never repeated
        within one database (a dropped and re-created table starts at a
        fresh value).  What a cache of stored rows keys on."""
        return self._stored(name).data_version

    def _bump(self, stored: _Stored, rows_changed: bool = False) -> None:
        self.changes += 1
        stored.version += 1
        if rows_changed:
            stored.data_version = self.changes

    def _stored(self, name: str) -> _Stored:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table {name}") from None

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Insert rows, routing them to range partitions when applicable."""
        stored = self._stored(name)
        table = stored.table
        ncols = len(table.columns)
        count = 0
        if table.partitioning:
            part_col = table.column_index(table.partitioning.column)
            for row in rows:
                row = tuple(row)
                if len(row) != ncols:
                    raise CatalogError(
                        f"row arity {len(row)} != {ncols} for {name}"
                    )
                idx = table.partitioning.route(row[part_col])
                if idx is None:
                    raise CatalogError(
                        f"value {row[part_col]!r} outside partition ranges "
                        f"of {name}"
                    )
                stored.partitions[idx].append(row)
                count += 1
        else:
            bucket = stored.partitions[0]
            for row in rows:
                row = tuple(row)
                if len(row) != ncols:
                    raise CatalogError(
                        f"row arity {len(row)} != {ncols} for {name}"
                    )
                bucket.append(row)
                count += 1
        self._bump(stored, rows_changed=True)
        return count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def scan(
        self, name: str, partition_ids: Optional[Sequence[int]] = None
    ) -> list[Row]:
        """All rows of a table, optionally restricted to some partitions."""
        stored = self._stored(name)
        if partition_ids is None:
            partition_ids = range(len(stored.partitions))
        out: list[Row] = []
        for pid in partition_ids:
            out.extend(stored.partitions[pid])
        return out

    def row_count(self, name: str) -> int:
        return sum(len(p) for p in self._stored(name).partitions)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self, name: Optional[str] = None, num_buckets: int = 32) -> None:
        """Compute table/column statistics (histograms), like ANALYZE."""
        names = [name] if name else list(self._tables)
        for tname in names:
            stored = self._stored(tname)
            rows = self.scan(tname)
            cols: dict[str, ColumnStats] = {}
            for i, col in enumerate(stored.table.columns):
                values = list(map(itemgetter(i), rows))
                cols[col.name] = ColumnStats.from_values(
                    values, width=col.dtype.width, num_buckets=num_buckets
                )
            stored.stats = TableStats(row_count=float(len(rows)), columns=cols)
            self._bump(stored)

    def stats(self, name: str) -> Optional[TableStats]:
        return self._stored(name).stats

    def set_stats(self, name: str, stats: TableStats) -> None:
        """Install externally computed statistics (used by the data
        generator to describe tables it synthesized without materializing
        every row)."""
        stored = self._stored(name)
        stored.stats = stats
        self._bump(stored)
