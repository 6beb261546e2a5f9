"""Catalog substrate: types, schema, statistics, storage and data generation.

This package plays the role of the backend database system's catalog in
Figure 2 of the paper.  Orca reads a :class:`Database` directly; its
metadata also travels as DXL (:func:`repro.dxl.serialize_metadata`), and
:func:`repro.dxl.parse_metadata` reads it back as a rowless
:class:`Database` for offline optimization and AMPERe replay (Figure 9).
"""

from repro.catalog.types import (
    DataType,
    BOOL,
    INT,
    BIGINT,
    FLOAT,
    DECIMAL,
    TEXT,
    DATE,
)
from repro.catalog.statistics import Bucket, ColumnStats, Histogram, TableStats
from repro.catalog.schema import (
    Column,
    DistributionPolicy,
    Index,
    PartitionScheme,
    Table,
)
from repro.catalog.database import Database
from repro.catalog.datagen import (
    ColumnSpec,
    ReverseStatsGenerator,
    generate_from_stats,
)

__all__ = [
    "DataType",
    "BOOL",
    "INT",
    "BIGINT",
    "FLOAT",
    "DECIMAL",
    "TEXT",
    "DATE",
    "Bucket",
    "ColumnStats",
    "Histogram",
    "TableStats",
    "Column",
    "DistributionPolicy",
    "Index",
    "PartitionScheme",
    "Table",
    "Database",
    "ColumnSpec",
    "ReverseStatsGenerator",
    "generate_from_stats",
]
