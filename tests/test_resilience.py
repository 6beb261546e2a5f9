"""Resilience suite: the fault x workload matrix must always yield plans.

The acceptance bar for governed sessions (ISSUE: "under the full fault
matrix every optimization returns an executable plan with the correct
``plan_source``"): a permanent injected fault at any instrumented site,
for any workload query, still ends in a plan — a Planner fallback when
the fault hits the search, the normal Orca plan when the query never
reaches the faulted site.  The schedule is seeded and deterministic, so
every failing cell is replayable.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine.cluster import Cluster
from repro.engine.executor import Executor
from repro.errors import FallbackError, InjectedFault
from repro.optimizer import PLAN_SOURCES
from repro.service import FAULT_SITES, FaultInjector, FaultSpec
from repro.workloads import QUERIES

from tests.conftest import rows_equal

#: Queries whose plans the matrix also executes (keeps runtime sane; the
#: full workload is executed un-faulted by test_workloads.py).
EXECUTED = ("star_brand", "channel_union", "topn_profit")


class TestFaultMatrix:
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_every_query_yields_plan_under_permanent_fault(
        self, tpcds_db, site
    ):
        injector = FaultInjector(
            [FaultSpec(site=site, times=0)]
        )
        session = repro.connect(
            tpcds_db, segments=4, faults=injector, name=f"fault-{site}"
        )
        executed_by_id = {q.id: q for q in QUERIES if q.id in EXECUTED}
        for query in QUERIES:
            fired_before = len(injector.fired)
            result = session.optimize(query.sql)
            assert result.plan is not None, (site, query.id)
            assert result.plan_source in PLAN_SOURCES, (site, query.id)
            if len(injector.fired) > fired_before:
                # The fault hit this query's search: provenance must say
                # the Planner saved it, and name the injected fault.
                assert result.plan_source == "planner_fallback", (
                    site, query.id,
                )
                assert result.fallback_reason == "FAULT"
            else:
                assert result.plan_source == "orca", (site, query.id)
            if query.id in executed_by_id:
                rows = session.execute(query.sql).rows
                assert isinstance(rows, list)
        # Every site is reachable from the workload: the fault must have
        # actually fired (the matrix is not vacuous).
        assert len(injector.fired) > 0, site
        assert session.metrics.queries >= len(QUERIES)
        assert session.metrics.fallbacks > 0

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_fallback_rows_match_orca_rows(self, tpcds_db, site):
        """Differential check: the Planner fallback a fault forces must
        compute the same answer the unfaulted Orca plan computes."""
        query = next(q for q in QUERIES if q.id == "star_brand")
        injector = FaultInjector(
            [FaultSpec(site=site, times=0)]
        )
        faulted = repro.connect(tpcds_db, segments=4, faults=injector)
        clean = repro.connect(tpcds_db, segments=4)
        faulted_result = faulted.optimize(query.sql)
        assert faulted_result.plan_source == "planner_fallback"
        cluster = Cluster(tpcds_db, segments=4)
        rows_faulted = Executor(cluster).execute(
            faulted_result.plan, faulted_result.output_cols
        ).rows
        clean_result = clean.optimize(query.sql)
        rows_clean = Executor(cluster).execute(
            clean_result.plan, clean_result.output_cols
        ).rows
        assert rows_equal(rows_faulted, rows_clean)


class TestFaultKinds:
    def test_alloc_fault_trips_quota_then_falls_back(self, tpcds_db):
        injector = FaultInjector([
            FaultSpec(
                site="costing", kind="alloc", times=0,
                alloc_bytes=1 << 30,
            )
        ])
        session = repro.connect(
            tpcds_db, segments=4, faults=injector,
            memory_quota_bytes=64 << 20,
        )
        result = session.optimize(QUERIES[0].sql)
        assert result.plan_source == "planner_fallback"
        assert result.fallback_reason == "MEM_QUOTA"
        assert session.metrics.quota_trips == 1

    def test_delay_fault_trips_deadline_then_falls_back(self, tpcds_db):
        injector = FaultInjector([
            FaultSpec(
                site="xform_apply", kind="delay", times=0,
                delay_seconds=0.05,
            )
        ])
        session = repro.connect(
            tpcds_db, segments=4, faults=injector, search_deadline_ms=20.0
        )
        result = session.optimize(QUERIES[0].sql)
        assert result.plan_source in ("planner_fallback", "orca_partial")
        assert session.metrics.timeouts >= 1

    def test_no_fallback_surfaces_injected_fault(self, tpcds_db):
        injector = FaultInjector(
            [FaultSpec(site="costing", times=0)]
        )
        session = repro.connect(
            tpcds_db, segments=4, faults=injector, fallback=False
        )
        with pytest.raises(InjectedFault):
            session.optimize(QUERIES[0].sql)

    def test_fallback_error_when_planner_also_dies(self, tpcds_db, monkeypatch):
        from repro.planner import LegacyPlanner

        injector = FaultInjector(
            [FaultSpec(site="costing", times=0)]
        )
        registry = repro.MetricsRegistry()
        session = repro.connect(
            tpcds_db, segments=4, faults=injector, telemetry=registry
        )
        monkeypatch.setattr(
            LegacyPlanner, "optimize",
            lambda self, stmt: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(FallbackError) as exc_info:
            session.optimize(QUERIES[0].sql)
        assert isinstance(exc_info.value.original, InjectedFault)
        # The surfaced error is counted once, in both counters.
        assert session.metrics.errors == 1
        assert registry.value("session_errors_total", code="FALLBACK") == 1


class TestOneHitFault:
    def test_falls_back_once_and_the_next_query_sails_past(self, tpcds_db):
        """A session never re-runs a search: a fault that fires on one
        hit sends that query to the Planner, and the schedule's hit
        counter has moved past it for the next one."""
        injector = FaultInjector([FaultSpec(site="costing", at=1, times=1)])
        session = repro.connect(tpcds_db, segments=4, faults=injector)
        first = session.optimize(QUERIES[0].sql)
        assert (first.plan_source, first.fallback_reason) == (
            "planner_fallback", "FAULT"
        )
        assert session.optimize(QUERIES[0].sql).plan_source == "orca"
        assert session.metrics.fallbacks == 1
        assert len(injector.fired) == 1


def fired(injector) -> tuple:
    """What an injector fired, in order -- equal across identical runs."""
    return tuple((f.site, f.hit, f.kind) for f in injector.fired)


class TestDeterminism:
    def _run_seeded(self, db, seed):
        injector = FaultInjector(seed=seed, rate=0.02)
        session = repro.connect(db, segments=4, faults=injector)
        sources = []
        for query in QUERIES[:8]:
            sources.append(session.optimize(query.sql).plan_source)
        return fired(injector), tuple(sources)

    def test_same_seed_same_schedule_and_sources(self, tpcds_db):
        fp1, sources1 = self._run_seeded(tpcds_db, seed=1234)
        fp2, sources2 = self._run_seeded(tpcds_db, seed=1234)
        assert fp1 == fp2
        assert sources1 == sources2
        assert len(fp1) > 0, "rate 0.02 never fired on this workload slice"

    def test_different_seed_different_schedule(self, tpcds_db):
        fp1, _ = self._run_seeded(tpcds_db, seed=1234)
        fp2, _ = self._run_seeded(tpcds_db, seed=99)
        assert fp1 != fp2

    def test_explicit_spec_fingerprint_is_replayable(self, tpcds_db):
        def run():
            injector = FaultInjector(
                [FaultSpec(site="stats_derive", at=3, times=2)]
            )
            session = repro.connect(tpcds_db, segments=4, faults=injector)
            session.optimize(QUERIES[0].sql)
            return fired(injector)

        assert run() == run()


class TestQuotaAndTimeoutFallback:
    def test_quota_falls_back_with_reason(self, tpcds_db):
        session = repro.connect(
            tpcds_db, segments=4,
            memory_quota_bytes=10_000,
        )
        result = session.optimize(QUERIES[0].sql)
        assert result.plan_source == "planner_fallback"
        assert result.fallback_reason == "MEM_QUOTA"
        assert session.metrics.quota_trips == 1
        rows = Executor(Cluster(tpcds_db, segments=4)).execute(
            result.plan, result.output_cols
        ).rows
        assert isinstance(rows, list)

    def test_job_limit_falls_back_with_reason(self, tpcds_db):
        session = repro.connect(tpcds_db, segments=4, search_job_limit=3)
        result = session.optimize(QUERIES[0].sql)
        assert result.plan_source == "planner_fallback"
        assert result.fallback_reason == "SEARCH_TIMEOUT"
        assert session.metrics.timeouts == 1
