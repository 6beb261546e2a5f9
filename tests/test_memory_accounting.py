"""The memo's allocation accountant against the heap walk it replaces.

Every memo charges a per-class constant where it creates an object
(``repro.gpos.memory``).  These tests pin the constants to
``deep_sizeof`` over the TPC-DS corpus and check that the reported
footprint is a deterministic function of the search.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.config import OptimizerConfig
from repro.gpos.memory import deep_sizeof
from repro.optimizer import Orca
from repro.trace import Tracer
from repro.workloads import QUERIES

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def corpus(tpcds_db):
    """(query id, accountant bytes, walked bytes, memory_bytes) per query."""
    orca = Orca(tpcds_db, config=OptimizerConfig(segments=8))
    rows = []
    for query in QUERIES:
        result = orca.optimize(query.sql)
        memo = result.memo
        rows.append((
            query.id,
            memo.tracker.total(),
            deep_sizeof(memo, {id(memo.tracer)}),
            result.search_stats.memory_bytes,
        ))
    return rows


def test_accountant_agrees_with_the_walk_on_the_corpus(corpus):
    assert len(corpus) == 32
    charged = sum(row[1] for row in corpus)
    walked = sum(row[2] for row in corpus)
    assert 0.85 <= charged / walked <= 1.15, (charged, walked)
    for query_id, one, walk, _ in corpus:
        assert 1 / 1.5 <= one / walk <= 1.5, (query_id, one, walk)


def test_traced_and_untraced_report_equal_bytes(tpcds_db, corpus):
    traced = Orca(tpcds_db, config=OptimizerConfig(segments=8), tracer=Tracer())
    for (query_id, _, _, untraced), query in zip(corpus, QUERIES):
        assert traced.optimize(query.sql).search_stats.memory_bytes == untraced, query_id


def test_first_and_thirtieth_optimization_report_equal_bytes():
    # A fresh interpreter: the first optimizations of a process are the
    # ones where a heap walk's total drifted.
    script = textwrap.dedent("""
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca
        from repro.workloads import QUERIES, build_populated_db

        orca = Orca(build_populated_db(scale=0.05), config=OptimizerConfig(segments=4))
        sql = QUERIES[0].sql
        print(*[orca.optimize(sql).search_stats.memory_bytes for _ in range(30)])
    """)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    sizes = [int(n) for n in done.stdout.split()]
    assert len(sizes) == 30 and sizes[0] > 0
    assert sizes[0] == sizes[29]
