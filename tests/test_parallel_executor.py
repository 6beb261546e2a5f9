"""Morsel-driven parallel execution: identical results, clean lifecycle.

The parallel scheduler (:mod:`repro.engine.parallel`, DESIGN.md §3l)
dispatches the fused engine's streaming phase across forked worker
processes, one morsel per (stage, bucket), and gathers results in
bucket order before the sequential metric replay.  The contract is
absolute: ``parallelism >= 2`` must be float-identical to the serial
fused path and the row oracle — rows, every ExecutionMetrics field,
every per-node NodeStats field, the rendered EXPLAIN ANALYZE — and
``parallelism = 0/1`` must be bit-identical to today's serial engine
(no pool is even constructed).

Lifecycle is covered adversarially: pools are reused across queries,
drained on ``Session.close()``, drained on a governor trip mid-query,
and a killed worker poisons only the in-flight query — the next
dispatch respawns a fresh pool.  No child process ever survives close.
"""

from __future__ import annotations

import multiprocessing
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.parallel import MorselPool, make_pool
from repro.errors import ExecutionError, TimeoutError_
from repro.optimizer import Orca
from repro.service.session import connect
from repro.trace import Tracer
from repro.workloads import QUERIES, build_populated_db

from tests.conftest import make_small_db
from tests.test_fused_executor import assert_identical


def _alive_children(prefix: str) -> list:
    """Live child processes whose name starts with ``prefix`` (pools are
    name-spaced so concurrent module-scoped pools don't cross-talk)."""
    return [
        p for p in multiprocessing.active_children()
        if p.is_alive() and p.name.startswith(prefix)
    ]


def _execute(db, result, *, segments=8, mode=ExecutionMode.FUSED,
             pool=None, tracer=None, cluster=None):
    ex = Executor(
        cluster or Cluster(db, segments=segments),
        execution_mode=mode,
        morsel_pool=pool,
        tracer=tracer,
    )
    return ex.execute(result.plan, result.output_cols, analyze=True)


# ---------------------------------------------------------------------------
# Full-corpus differential: parallel == serial fused == row oracle.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpcds_orca(tpcds_db):
    return Orca(tpcds_db, config=OptimizerConfig(segments=8))


@pytest.fixture(scope="module")
def shared_pools():
    """One persistent pool per tested width, shared across the corpus —
    exactly how a session uses it (reuse is part of what's under test)."""
    pools = {n: MorselPool(n, name=f"corpus{n}") for n in (2, 4)}
    yield pools
    for pool in pools.values():
        pool.shutdown()
    assert not _alive_children("corpus")


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_tpcds_corpus_parallel_identical(
    tpcds_db, tpcds_orca, shared_pools, query
):
    result = tpcds_orca.optimize(query.sql)
    row = _execute(tpcds_db, result, mode=ExecutionMode.ROW)
    serial = _execute(tpcds_db, result)
    assert_identical(row, serial, result.plan)
    for width in (2, 4):
        parallel = _execute(tpcds_db, result, pool=shared_pools[width])
        assert_identical(row, parallel, result.plan)
        assert parallel.analysis.render() == serial.analysis.render()


def test_corpus_actually_dispatched(tpcds_db, tpcds_orca, shared_pools):
    """The identity above must not pass vacuously: real morsels must
    flow through both pool widths for corpus queries."""
    result = tpcds_orca.optimize(QUERIES[0].sql)
    for width, pool in shared_pools.items():
        _execute(tpcds_db, result, pool=pool)
        stats = pool.stats()
        assert stats["workers"] == width
        assert stats["morsels_dispatched"] > 0, stats
        assert stats["dispatch_p95_ms"] is not None


def test_determinism_two_runs_bit_identical(tpcds_db, tpcds_orca):
    """Two parallelism=4 runs of the same plans: bit-identical rows,
    metrics, and rendered analysis regardless of worker timing."""
    results = [tpcds_orca.optimize(q.sql) for q in QUERIES[:6]]
    with MorselPool(4, name="determinism") as pool:
        first = [_execute(tpcds_db, r, pool=pool) for r in results]
        second = [_execute(tpcds_db, r, pool=pool) for r in results]
    for r, a, b in zip(results, first, second):
        assert_identical(a, b, r.plan)


def test_parallelism_zero_and_one_build_no_pool(tpcds_db):
    """0/1 resolve to the serial path without constructing a pool, so
    today's engine is bit-identical by construction."""
    for p in (0, 1):
        assert make_pool(p) is None
        ex = Executor(
            Cluster(tpcds_db, segments=8),
            execution_mode=ExecutionMode.FUSED,
            morsel_pool=make_pool(p),
        )
        assert ex._morsel_pool is None


# ---------------------------------------------------------------------------
# Property: random bucket counts (segment fan-out drives morsel counts).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def prop_db():
    return make_small_db(t1_rows=900, t2_rows=200)


@pytest.fixture(scope="module")
def prop_pool():
    with MorselPool(3, name="prop") as pool:
        yield pool


@settings(max_examples=12, deadline=None)
@given(
    segments=st.integers(min_value=1, max_value=11),
    threshold=st.integers(min_value=0, max_value=100),
    joined=st.booleans(),
    grouped=st.booleans(),
)
def test_random_bucket_counts_identical(
    prop_db, prop_pool, segments, threshold, joined, grouped
):
    select = "t1.c, count(*), sum(t1.b)" if grouped else "t1.a, t1.b"
    tail = "GROUP BY t1.c ORDER BY t1.c" if grouped else "ORDER BY t1.a, t1.b"
    if joined:
        from_where = f"FROM t1, t2 WHERE t1.a = t2.a AND t1.b > {threshold}"
    else:
        from_where = f"FROM t1 WHERE t1.b > {threshold}"
    sql = f"SELECT {select} {from_where} {tail}"
    orca = Orca(prop_db, config=OptimizerConfig(segments=segments))
    result = orca.optimize(sql)
    row = _execute(prop_db, result, segments=segments, mode=ExecutionMode.ROW)
    parallel = _execute(prop_db, result, segments=segments, pool=prop_pool)
    assert_identical(row, parallel, result.plan)


# ---------------------------------------------------------------------------
# Scan-cache safety under the pool.
# ---------------------------------------------------------------------------


def test_scan_cache_counts_pinned_serial_vs_parallel(tpcds_db, tpcds_orca):
    """Scans run only on the coordinator, so warm-cache hit/miss trace
    counts — and therefore every scan charge — are identical whether or
    not a pool is attached.  Two passes over one shared cluster per
    mode: first cold (misses), second warm (hits only)."""
    results = [tpcds_orca.optimize(q.sql) for q in QUERIES[:5]]
    counts = {}
    with MorselPool(2, name="scancache") as pool:
        for label, use_pool in (("serial", None), ("parallel", pool)):
            shared = Cluster(tpcds_db, segments=8)
            tracer = Tracer()
            for _ in range(2):
                for result in results:
                    _execute(tpcds_db, result, pool=use_pool,
                             tracer=tracer, cluster=shared)
            counts[label] = (
                tracer.count("scan_cache_hit"),
                tracer.count("scan_cache_miss"),
            )
    assert counts["serial"] == counts["parallel"]
    hits, misses = counts["parallel"]
    assert misses > 0 and hits > 0


# ---------------------------------------------------------------------------
# Lifecycle: lazy creation, reuse, drain on close / governor trip / crash.
# ---------------------------------------------------------------------------

SESSION_POOL = "session-morsels"
SQL = "SELECT t1.c, count(*) FROM t1, t2 WHERE t1.a = t2.a GROUP BY t1.c"


@pytest.fixture()
def small_session():
    db = make_small_db(t1_rows=800, t2_rows=200)
    session = connect(
        db, config=OptimizerConfig(segments=4, parallelism=2)
    )
    yield session
    session.close()
    assert not _alive_children(SESSION_POOL)


def test_session_pool_lazy_reused_and_drained(small_session):
    session = small_session
    assert session.morsel_stats() is None  # nothing engaged yet
    session.execute(SQL)
    stats = session.morsel_stats()
    assert stats is not None and stats["morsels_dispatched"] > 0
    pool = session._morsel_pool
    procs = list(pool._procs)
    assert procs and all(p.is_alive() for p in procs)
    session.execute(SQL)  # same pool, same workers: reuse, not respawn
    assert session._morsel_pool is pool and pool._procs == procs
    session.close()
    assert all(not p.is_alive() for p in procs)
    assert session._morsel_pool is None
    session.close()  # idempotent


def test_governor_trip_mid_query_drains_pool(small_session, monkeypatch):
    """A budget trip during parallel execution must not orphan workers:
    the session drains the pool on the way out and respawns lazily."""
    session = small_session
    session.execute(SQL)  # pool is up
    assert _alive_children(SESSION_POOL)
    from repro.engine.metrics import ExecutionMetrics

    def tripping_check(self):
        raise TimeoutError_("injected governor trip")

    monkeypatch.setattr(ExecutionMetrics, "check_budget", tripping_check)
    with pytest.raises(TimeoutError_):
        session.execute(SQL)
    assert session._morsel_pool is None
    assert not _alive_children(SESSION_POOL)
    monkeypatch.undo()
    session.execute(SQL)  # lazily respawned, healthy again
    assert session.morsel_stats()["morsels_dispatched"] > 0


def test_executor_owned_pool_drained_on_trip(small_session):
    """A pool made for one executor is its maker's to drain, including
    when execution dies mid-query on a simulated time limit."""
    session = small_session
    result = session.optimize(SQL)
    pool = make_pool(2)
    ex = Executor(
        Cluster(session.catalog, segments=4),
        execution_mode=ExecutionMode.FUSED,
        morsel_pool=pool,
        time_limit_seconds=1e-12,
    )
    assert ex._morsel_pool is pool
    pool.ensure_started()
    procs = list(pool._procs)
    assert all(p.is_alive() for p in procs)
    with pytest.raises(TimeoutError_):
        ex.execute(result.plan, result.output_cols)
    pool.shutdown()
    assert all(not p.is_alive() for p in procs)
    pool.shutdown()  # idempotent


def test_killed_worker_poisons_query_not_pool(small_session):
    session = small_session
    session.execute(SQL)
    victim = session._morsel_pool._procs[0]
    victim.terminate()
    victim.join(timeout=5.0)
    with pytest.raises(ExecutionError):
        session.execute(SQL)
    assert not _alive_children(SESSION_POOL)  # poisoned pool fully drained
    execution = session.execute(SQL)  # fresh pool, query succeeds
    assert execution.rows
    assert session.morsel_stats()["morsels_dispatched"] > 0


# ---------------------------------------------------------------------------
# Pool internals: telemetry and the morsel trace span.
# ---------------------------------------------------------------------------


def test_pool_stats_and_trace_spans(tpcds_db, tpcds_orca):
    result = tpcds_orca.optimize(QUERIES[0].sql)
    tracer = Tracer()
    with MorselPool(2, name="spans") as pool:
        _execute(tpcds_db, result, pool=pool, tracer=tracer)
        stats = pool.stats()
    assert stats["configured_workers"] == 2
    assert stats["morsels_dispatched"] >= stats["batches"] > 0
    spans = [s for s in tracer.spans if s.name == "fused:morsels"]
    assert spans, "parallel execution must leave fused:morsels spans"
    assert all(s.data["workers"] == 2 for s in spans)
    assert sum(s.data["morsels"] for s in spans) == (
        stats["morsels_dispatched"]
    )


# ---------------------------------------------------------------------------
# Resident row-set cache: warm dispatches ship references, not rows.
# ---------------------------------------------------------------------------

#: Motion-free grouped scan (group key == distribution key): a single
#: stage-0 chain, so every dispatched row is resident-cacheable.
GROUPED_SCAN_SQL = (
    "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev "
    "FROM store_sales GROUP BY ss_item_sk"
)


def test_resident_cache_reuses_scan_buckets(tpcds_db, tpcds_orca):
    """On a warm cluster the scan cache serves the *same* bucket lists
    every execution, so repeat dispatches ship tiny references instead
    of re-pickling rows: rows_shipped stops growing while rows_reused
    climbs — and results stay identical to serial."""
    result = tpcds_orca.optimize(GROUPED_SCAN_SQL)
    cluster_p = Cluster(tpcds_db, segments=8)
    serial = _execute(tpcds_db, result)
    with MorselPool(2, name="resident") as pool:
        first = _execute(tpcds_db, result, pool=pool, cluster=cluster_p)
        shipped_cold = pool.stats()["rows_shipped"]
        assert shipped_cold > 0
        second = _execute(tpcds_db, result, pool=pool, cluster=cluster_p)
        stats = pool.stats()
    assert stats["rows_shipped"] == shipped_cold, (
        "warm dispatch re-pickled rows the workers already hold"
    )
    assert stats["rows_reused"] >= shipped_cold
    assert_identical(serial, first, result.plan)
    assert_identical(serial, second, result.plan)


def test_resident_cache_flush_preserves_identity(tpcds_db, tpcds_orca):
    """Crossing the pin budget flushes both sides and re-installs; the
    results must not care."""
    result = tpcds_orca.optimize(GROUPED_SCAN_SQL)
    cluster_p = Cluster(tpcds_db, segments=8)
    serial = _execute(tpcds_db, result)
    with MorselPool(2, name="flushpool") as pool:
        pool.pin_rows_max = 1  # force a flush before every warm dispatch
        outs = [
            _execute(tpcds_db, result, pool=pool, cluster=cluster_p)
            for _ in range(3)
        ]
        stats = pool.stats()
    assert stats["cache_flushes"] >= 1
    for out in outs:
        assert_identical(serial, out, result.plan)


def test_resident_cache_safe_across_clusters(tpcds_db, tpcds_orca):
    """Alternating clusters with *different data* on one pool: the
    identity-keyed pin set must never serve stale rows (a pinned id
    cannot be recycled, so a new cluster's lists always re-install)."""
    result = tpcds_orca.optimize(GROUPED_SCAN_SQL)
    other_db = build_populated_db(scale=0.03)
    other_orca = Orca(other_db, config=OptimizerConfig(segments=8))
    other_result = other_orca.optimize(GROUPED_SCAN_SQL)
    cl_a = Cluster(tpcds_db, segments=8)
    cl_b = Cluster(other_db, segments=8)
    serial_a = _execute(tpcds_db, result)
    serial_b = _execute(other_db, other_result)
    assert serial_a.rows != serial_b.rows, "test needs differing data"
    with MorselPool(2, name="xcluster") as pool:
        for _ in range(2):
            out_a = _execute(tpcds_db, result, pool=pool, cluster=cl_a)
            out_b = _execute(
                other_db, other_result, pool=pool, cluster=cl_b
            )
            assert_identical(serial_a, out_a, result.plan)
            assert_identical(serial_b, out_b, other_result.plan)


def test_pool_shutdown_is_idempotent_and_del_safe():
    pool = MorselPool(2, name="shutdown")
    pool.ensure_started()
    assert len(_alive_children("shutdown")) == 2
    pool.shutdown()
    pool.shutdown()
    assert not _alive_children("shutdown")
    # Abandoned pools are collected without leaking processes.
    pool2 = MorselPool(2, name="abandoned")
    pool2.ensure_started()
    procs = list(pool2._procs)
    del pool2
    deadline = time.monotonic() + 5.0
    while any(p.is_alive() for p in procs) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(not p.is_alive() for p in procs)


# ---------------------------------------------------------------------------
# A gather cut short leaves replies in the pipes; they must not be read as
# the next statement's.
# ---------------------------------------------------------------------------

#: A statement with a different shape from ``SQL``: no join, no grouping.
OTHER_SQL = "SELECT t1.a, t1.b FROM t1 WHERE t1.b > 10 ORDER BY t1.a, t1.b"


def test_interrupted_gather_does_not_poison_the_next_statement(monkeypatch):
    from multiprocessing.connection import Connection

    db = make_small_db(t1_rows=800, t2_rows=200)
    orca = Orca(db, config=OptimizerConfig(segments=4))
    first, second = orca.optimize(SQL), orca.optimize(OTHER_SQL)
    serial = _execute(db, second, segments=4)
    pool = make_pool(2)
    pool.ensure_started()  # fork before patching: the children keep recv
    try:
        recv = Connection.recv
        interrupted = []

        def recv_interrupted_once(conn):
            if not interrupted:
                interrupted.append(conn)
                raise KeyboardInterrupt
            return recv(conn)

        monkeypatch.setattr(Connection, "recv", recv_interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            _execute(db, first, segments=4, pool=pool)
        monkeypatch.undo()
        assert interrupted
        parallel = _execute(db, second, segments=4, pool=pool)
        assert parallel.rows == serial.rows
        assert_identical(serial, parallel, second.plan)
    finally:
        pool.shutdown()
