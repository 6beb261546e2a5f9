"""Bit-identity pin of the generated TPC-DS data and its ANALYZE output.

The reverse-statistics generator promises one stream of values per seed:
the same RNG calls, in row-major order, drawn from the same pools.  These
digests hold it to that promise across rewrites of the generator and of
ANALYZE.  Each digest covers

- every table's rows, in partition order;
- ``repr(db.stats(t))`` for every table;
- the generator's FK domains.

The constants are written by hand, not by ``--update-golden``: a change
that moves one of them changes the data every plan and estimate reads.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.catalog.datagen import generate_from_stats
from repro.workloads import tpcds_data
from repro.workloads.tpcds_schema import build_schema


def _digest(db, domains=None) -> str:
    h = hashlib.sha1()
    for table in db.tables():
        h.update(table.name.encode())
        for row in db.scan(table.name):
            h.update(repr(row).encode())
        h.update(repr(db.stats(table.name)).encode())
    for key in sorted(domains or {}):
        h.update(repr((key, domains[key])).encode())
    return h.hexdigest()


def _build(scale: float, seed: int, monkeypatch):
    """``build_populated_db`` plus the FK domains its generator kept."""
    made = []

    class Recording(tpcds_data.ReverseStatsGenerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(tpcds_data, "ReverseStatsGenerator", Recording)
    db = tpcds_data.build_populated_db(scale=scale, seed=seed)
    (gen,) = made
    return db, gen._domains


@pytest.mark.parametrize(
    "seed, expected",
    [
        (42, "cfd50c0233eccd1fb7f325cc21abb701b4391ba2"),
        (7, "229b296fcda306d2a379def21812d33398731d2f"),
    ],
)
def test_populated_db_is_bit_identical(seed, expected, monkeypatch):
    db, domains = _build(0.1, seed, monkeypatch)
    assert _digest(db, domains) == expected


def test_generate_from_stats_is_bit_identical(monkeypatch):
    source, _ = _build(0.1, 42, monkeypatch)
    clone = build_schema()
    generate_from_stats(clone, "customer", source.stats("customer"), seed=9)
    clone.analyze("customer")
    h = hashlib.sha1()
    for row in clone.scan("customer"):
        h.update(repr(row).encode())
    h.update(repr(clone.stats("customer")).encode())
    assert h.hexdigest() == "76be0a5636f94a71bb106374e8e377ef9207b051"
