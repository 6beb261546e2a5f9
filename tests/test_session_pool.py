"""Session pool: admission control, recycling, per-session metrics."""

from __future__ import annotations

import threading

import pytest

from repro.errors import AdmissionError, OptimizerError
from repro.service import FaultInjector, FaultSpec, SessionPool

SQL = "SELECT d.d_year, count(*) AS n FROM date_dim d GROUP BY d.d_year"


class TestAdmission:
    def test_non_blocking_rejects_when_full(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=2, segments=4)
        a = pool.acquire(timeout_seconds=0)
        b = pool.acquire(timeout_seconds=0)
        with pytest.raises(AdmissionError):
            pool.acquire(timeout_seconds=0)
        assert pool.rejected == 1
        pool.release(a)
        c = pool.acquire(timeout_seconds=0)  # a slot freed up
        assert c is a  # recycled, not re-created
        pool.release(b)
        pool.release(c)

    def test_timed_admission_rejects_after_timeout(self, tpcds_db):
        pool = SessionPool(
            tpcds_db, max_sessions=1, admission_timeout_seconds=0.05,
            segments=4,
        )
        held = pool.acquire()
        with pytest.raises(AdmissionError):
            pool.acquire()  # uses the pool's default timeout
        pool.release(held)

    def test_blocked_acquire_wakes_on_release(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=1, segments=4)
        held = pool.acquire()
        acquired = []

        def taker():
            s = pool.acquire(timeout_seconds=5.0)
            acquired.append(s)
            pool.release(s)

        thread = threading.Thread(target=taker)
        thread.start()
        pool.release(held)
        thread.join(timeout=5.0)
        assert acquired == [held]

    def test_release_validates_ownership(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=1, segments=4)
        other = SessionPool(tpcds_db, max_sessions=1, segments=4)
        foreign = other.acquire()
        with pytest.raises(OptimizerError):
            pool.release(foreign)
        held = pool.acquire()
        pool.release(held)
        with pytest.raises(OptimizerError):
            pool.release(held)  # double release

    def test_max_sessions_must_be_positive(self, tpcds_db):
        with pytest.raises(OptimizerError):
            SessionPool(tpcds_db, max_sessions=0)

    def test_closed_pool_rejects_acquire(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=1, segments=4)
        pool.close()
        with pytest.raises(OptimizerError):
            pool.acquire()


class TestPoolUsage:
    def test_one_shot_optimize_and_execute(self, tpcds_db):
        with SessionPool(tpcds_db, max_sessions=2, segments=4) as pool:
            result = pool.optimize(SQL)
            assert result.plan_source == "orca"
            rows = pool.execute(SQL).rows
            assert len(rows) > 0
            assert pool.active == 0  # everything released

    def test_recycled_session_keeps_warm_plan_cache(self, tpcds_db):
        pool = SessionPool(
            tpcds_db, max_sessions=1, segments=4, enable_plan_cache=True
        )
        first = pool.optimize(SQL)
        assert first.plan_cache == "miss"
        second = pool.optimize(SQL)  # same recycled session
        assert second.plan_source == "cache"

    def test_metrics_aggregate_per_session(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=2, segments=4)
        with pool.session() as a:
            a.optimize(SQL)
            with pool.session() as b:
                b.optimize(SQL)
                b.optimize(SQL)
        telemetry = pool.telemetry
        assert telemetry.value(
            "pool_admissions_total", outcome="admitted"
        ) == 2
        assert telemetry.value(
            "pool_admissions_total", outcome="rejected"
        ) == 0
        assert pool.active == 0
        assert {a.name, b.name} == {"session-0", "session-1"}
        assert (a.metrics.queries, b.metrics.queries) == (1, 2)
        assert all(
            s.metrics.plan_sources == {"orca": s.metrics.queries}
            for s in (a, b)
        )
        assert telemetry.value("queries_total", plan_source="orca") == 3

    def test_pool_sessions_retry_transient_faults(self, tpcds_db):
        injector = FaultInjector(
            [FaultSpec(site="costing", at=1, times=1, transient=True)]
        )
        pool = SessionPool(
            tpcds_db, max_sessions=1, segments=4,
            faults=injector, max_retries=2,
        )
        with pool.session() as session:
            result = session.optimize(SQL)
        assert result.plan_source == "orca"
        assert session.metrics.retries == 1
        assert session.metrics.fallbacks == 0

    def test_concurrent_one_shots_stay_bounded(self, tpcds_db):
        pool = SessionPool(tpcds_db, max_sessions=2, segments=4)
        peak = []
        names = set()
        lock = threading.Lock()

        real_acquire = pool.acquire

        def tracking_acquire(timeout_seconds=None):
            session = real_acquire(timeout_seconds)
            with lock:
                peak.append(pool.active)
                names.add(session.name)
            return session

        pool.acquire = tracking_acquire
        threads = [
            threading.Thread(target=pool.optimize, args=(SQL,))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert pool.admitted == 6
        assert max(peak) <= 2
        assert len(names) <= 2

    def test_registry_is_the_scrape_target(self, tpcds_db):
        from repro.telemetry import parse_prometheus

        pool = SessionPool(tpcds_db, max_sessions=2, segments=4)
        pool.optimize(SQL)
        parsed = parse_prometheus(pool.prometheus())
        assert ({"outcome": "admitted"}, 1.0) in parsed[
            "repro_pool_admissions_total"
        ]
        assert parsed["repro_pool_max_sessions"] == [({}, 2.0)]
        assert ({"plan_source": "orca"}, 1.0) in parsed["repro_queries_total"]
