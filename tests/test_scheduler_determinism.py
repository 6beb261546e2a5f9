"""Scheduler determinism: serial and threaded runs must agree.

The threaded job scheduler executes steps under a lock (see
``repro.gpos.scheduler``), so multi-worker runs may interleave job steps
differently than serial runs — but the search must still converge to the
same fixpoint: identical best plans and identical Memo group / group
expression counts for a fixed query set.

Every invariant is checked with cost-bound pruning both enabled (the
default) and disabled: pruning decisions depend only on Memo state that
is identical across schedules, so the abandoned alternatives — and
therefore the chosen plan and the Memo — must not vary with the worker
count either.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import queries_by_id

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


def _optimize(db, sql, workers, pruning=True):
    config = OptimizerConfig(
        segments=8, workers=workers, enable_cost_bound_pruning=pruning
    )
    return Orca(db, config=config).optimize(sql)


@PRUNING
@pytest.mark.parametrize("sql", SMALL_DB_SQL, ids=range(len(SMALL_DB_SQL)))
def test_serial_vs_threaded_identical(det_db, sql, pruning):
    serial = _optimize(det_db, sql, workers=1, pruning=pruning)
    threaded = _optimize(det_db, sql, workers=4, pruning=pruning)
    assert serial.explain() == threaded.explain(), sql
    assert serial.num_groups == threaded.num_groups, sql
    assert serial.num_gexprs == threaded.num_gexprs, sql
    assert serial.plan.cost == pytest.approx(threaded.plan.cost), sql
    assert serial.pruned_alternatives == threaded.pruned_alternatives, sql


@PRUNING
@pytest.mark.parametrize("query_id", TPCDS_IDS)
def test_serial_vs_threaded_identical_tpcds(tpcds_db, query_id, pruning):
    query = queries_by_id()[query_id]
    serial = _optimize(tpcds_db, query.sql, workers=1, pruning=pruning)
    threaded = _optimize(tpcds_db, query.sql, workers=4, pruning=pruning)
    assert serial.explain() == threaded.explain(), query_id
    assert serial.num_groups == threaded.num_groups, query_id
    assert serial.num_gexprs == threaded.num_gexprs, query_id
    assert serial.pruned_alternatives == threaded.pruned_alternatives, query_id


@PRUNING
def test_threaded_runs_are_self_consistent(det_db, pruning):
    """Two independent threaded runs of the same query agree with each
    other (not just with the serial run)."""
    sql = SMALL_DB_SQL[0]
    r1 = _optimize(det_db, sql, workers=4, pruning=pruning)
    r2 = _optimize(det_db, sql, workers=4, pruning=pruning)
    assert r1.explain() == r2.explain()
    assert r1.num_groups == r2.num_groups
    assert r1.num_gexprs == r2.num_gexprs
    assert r1.pruned_alternatives == r2.pruned_alternatives


#: sha1 of the serial ``job_log`` as ``[(job_id, kind, depends_on), ...]``
#: and its length, recorded at the commit before job ids moved onto the
#: job and requests became integer ids.  A change that renumbers jobs,
#: reorders steps or rewires a dependency edge — i.e. changes the DAG
#: ``simulate_makespan`` sees — fails here even when plans still agree.
JOB_LOG_PINS = {
    "star_brand": (851, "17d13dfdded0acba5c4f679a18da453ff5907cd9"),
    "demo_promo": (2372, "b9f96bdbaba978d0eb4cd54197fbfbe65e8efc55"),
    "channel_union": (391, "99addfa321ab38f000f4d97e866ff16248f3e6aa"),
}


@pytest.mark.parametrize("query_id", sorted(JOB_LOG_PINS))
def test_job_log_sequence_is_pinned(tpcds_db, query_id):
    result = _optimize(tpcds_db, queries_by_id()[query_id].sql, workers=1)
    log = [
        (rec.job_id, rec.kind, list(rec.depends_on))
        for rec in result.search_stats.job_log
    ]
    digest = hashlib.sha1(json.dumps(log).encode()).hexdigest()
    assert (len(log), digest) == JOB_LOG_PINS[query_id]
