"""Shared fixtures: a small two-table database and a TPC-DS database."""

from __future__ import annotations

import random
import sys

import pytest

from repro.catalog import Column, Database, Index, INT, TEXT, Table
from repro.catalog.schema import PartitionScheme, RangePartition
from repro.config import OptimizerConfig


def make_small_db(seed: int = 0, t1_rows: int = 5000, t2_rows: int = 500) -> Database:
    """Two hash-distributed tables with analyzed statistics."""
    rng = random.Random(seed)
    db = Database()
    db.create_table(Table(
        "t1",
        [Column("a", INT), Column("b", INT), Column("c", TEXT)],
        distribution_columns=("a",),
        indexes=[Index("t1_b_idx", "b")],
    ))
    db.create_table(Table(
        "t2",
        [Column("a", INT), Column("b", INT)],
        distribution_columns=("a",),
    ))
    db.insert("t1", [
        (rng.randint(0, 1000), rng.randint(0, 100), rng.choice("xyz"))
        for _ in range(t1_rows)
    ])
    db.insert("t2", [
        (rng.randint(0, 1000), rng.randint(0, 1000)) for _ in range(t2_rows)
    ])
    db.analyze()
    return db


def make_partitioned_db(seed: int = 0) -> Database:
    """A fact table range-partitioned by day plus a date dimension."""
    rng = random.Random(seed)
    db = Database()
    parts = tuple(
        RangePartition(f"p{i}", i * 100 + 1, (i + 1) * 100 + 1) for i in range(10)
    )
    db.create_table(Table(
        "fact",
        [Column("day", INT), Column("k", INT), Column("v", INT)],
        distribution_columns=("k",),
        partitioning=PartitionScheme("day", parts),
    ))
    db.create_table(Table(
        "dim",
        [Column("day", INT), Column("tag", TEXT)],
        distribution_columns=("day",),
    ))
    db.insert("fact", [
        (rng.randint(1, 1000), rng.randint(0, 99), rng.randint(0, 10))
        for _ in range(8000)
    ])
    db.insert("dim", [(d, "hot" if d <= 100 else "cold") for d in range(1, 1001)])
    db.analyze()
    return db


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden plan snapshots under tests/golden/ "
             "instead of comparing against them",
    )


@pytest.fixture(scope="session")
def small_db() -> Database:
    return make_small_db()


@pytest.fixture(scope="session")
def partitioned_db() -> Database:
    return make_partitioned_db()


@pytest.fixture(scope="session")
def tpcds_db() -> Database:
    from repro.workloads import build_populated_db

    return build_populated_db(scale=0.08)


@pytest.fixture()
def config() -> OptimizerConfig:
    return OptimizerConfig(segments=8)


def rows_equal(rows1, rows2, float_places: int = 6) -> bool:
    """Order-insensitive row comparison tolerant of float summation order."""
    def key(row):
        return tuple(
            round(v, float_places) if isinstance(v, float) else v for v in row
        )

    if len(rows1) != len(rows2):
        return False
    return sorted(map(key, rows1), key=repr) == sorted(map(key, rows2), key=repr)


@pytest.fixture()
def eager_thread_switching():
    """Ask the interpreter to switch threads every microsecond for the
    test, so a lost update between two bytecodes shows up in one run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
