"""Scheduler determinism: a search depends on its inputs, not its caller.

The job scheduler is serial, so for a fixed catalog, statement and
config the sequence of job steps is fixed.  What may still vary between
two runs is the process around them: which thread calls the optimizer
(sessions may be called from threads, and the ledger's fleet clients
call it from worker threads) and what earlier optimizations left in the
process-wide request-id table.  Neither may change the plan, the Memo group / group
expression counts or the abandoned alternatives.

Every invariant is checked with cost-bound pruning both enabled (the
default) and disabled.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import queries_by_id

from tests import pins
from tests.conftest import make_small_db
from tests.test_differential import QueryGenerator

SMALL_DB_SQL = [QueryGenerator(seed).generate() for seed in range(300, 308)]
TPCDS_IDS = ["star_brand", "demo_promo"]

PRUNING = pytest.mark.parametrize(
    "pruning", [True, False], ids=["pruned", "exhaustive"]
)


@pytest.fixture(scope="module")
def det_db():
    return make_small_db(t1_rows=1200, t2_rows=250)


def _optimize(db, sql, pruning=True):
    config = OptimizerConfig(segments=8, enable_cost_bound_pruning=pruning)
    return Orca(db, config=config).optimize(sql)


def _optimize_on_thread(db, sql, pruning=True):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(_optimize, db, sql, pruning).result()


def _assert_same_search(a, b, label):
    assert a.explain() == b.explain(), label
    assert a.plan.cost == b.plan.cost, label
    for field in ("num_groups", "num_gexprs", "pruned_alternatives"):
        assert getattr(a.search_stats, field) == getattr(
            b.search_stats, field
        ), (label, field)


@PRUNING
@pytest.mark.parametrize("sql", SMALL_DB_SQL, ids=range(len(SMALL_DB_SQL)))
def test_serial_vs_threaded_identical(det_db, sql, pruning):
    _assert_same_search(
        _optimize(det_db, sql, pruning),
        _optimize_on_thread(det_db, sql, pruning),
        sql,
    )


@PRUNING
@pytest.mark.parametrize("query_id", TPCDS_IDS)
def test_serial_vs_threaded_identical_tpcds(tpcds_db, query_id, pruning):
    sql = queries_by_id()[query_id].sql
    _assert_same_search(
        _optimize(tpcds_db, sql, pruning),
        _optimize_on_thread(tpcds_db, sql, pruning),
        query_id,
    )


@PRUNING
def test_threaded_runs_are_self_consistent(det_db, pruning):
    """Two runs on two different worker threads agree with each other
    (not just with the main-thread run)."""
    sql = SMALL_DB_SQL[0]
    _assert_same_search(
        _optimize_on_thread(det_db, sql, pruning),
        _optimize_on_thread(det_db, sql, pruning),
        sql,
    )


@pytest.mark.pins
@pytest.mark.parametrize("query_id", sorted(queries_by_id()))
def test_job_log_sequence_is_pinned(tpcds_db, query_id):
    """The serial ``job_log`` as ``[(job_id, kind, depends_on), ...]``
    (its length and sha1), the root plan's cost and the costed and pruned
    alternative counts match the query's record in the pin file.  A
    change that renumbers jobs, reorders steps or rewires a dependency
    edge -- i.e. changes the DAG ``simulate_makespan`` sees -- fails here
    even when plans still agree; so does one that costs or prunes a
    different set of alternatives."""
    result = _optimize(tpcds_db, queries_by_id()[query_id].sql)
    stats = result.search_stats
    log = [
        (rec.job_id, rec.kind, list(rec.depends_on))
        for rec in stats.job_log
    ]
    pins.check({"queries": {query_id: {
        "jobs": len(log),
        "job_log_sha1": hashlib.sha1(json.dumps(log).encode()).hexdigest(),
        "root_cost": result.plan.cost.hex(),
        "costed_alternatives": stats.costed_alternatives,
        "pruned_alternatives": stats.pruned_alternatives,
    }}})


@pytest.mark.pins
def test_every_corpus_query_is_pinned():
    """The pin file holds a complete record for every corpus query and
    no record for a query the corpus no longer has."""
    if pins.updating:
        return  # the session hook writes the records after the tests
    records = pins.stored()["queries"]
    assert sorted(records) == sorted(queries_by_id())
    incomplete = {
        query_id: sorted(set(pins.QUERY_FIELDS) ^ set(record))
        for query_id, record in records.items()
        if set(record) != set(pins.QUERY_FIELDS)
    }
    assert incomplete == {}
