"""The multi-process optimizer fleet (GPOS §4.2, one level up).

The paper parallelizes the search across cores inside one optimizer
process; the Python reproduction gets the same architecture by sharding
whole optimizations across worker *processes* behind one endpoint.
These tests pin the contract down:

- **Identity** — a fleet-served plan is bit-identical (explain text) to
  the plan a single-process governed session produces, over the whole
  TPC-DS corpus (the differential suite vs ``SessionPool``).
- **Routing** — round-robin rotates, least-loaded balances, affinity
  keeps a query shape on one worker; all skip dead workers.
- **Chaos** — a ``kill`` or ``wedge`` fault at any instrumented site
  takes a *worker* down, never a query: the orchestrator restarts it,
  re-routes, and availability stays 100% with restart counters pinned.
- **Health** — heartbeats detect wedged workers; drain is clean
  (exit code 0 on every worker) after all of it.
"""

from __future__ import annotations

import pytest

import repro
from repro.fleet import (
    AffinityPolicy,
    Fleet,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    WorkerView,
    make_policy,
)
from repro.errors import OptimizerError, ParseError
from repro.service import SessionPool
from repro.service.faults import FAULT_SITES, FaultSpec, KILLED_EXIT_CODE
from repro.workloads import QUERIES

from tests.conftest import make_small_db, rows_equal

Q1 = "SELECT a, b FROM t1 WHERE b = 42 ORDER BY a, b LIMIT 10"
Q2 = "SELECT count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.b < 100"
Q3 = "SELECT a FROM t2 WHERE b > 7 ORDER BY a"


@pytest.fixture(scope="module")
def fleet_db():
    return make_small_db(t1_rows=2000, t2_rows=300)


def make_fleet(db, **kwargs) -> Fleet:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("request_timeout_seconds", 60.0)
    return repro.connect_fleet(db, **kwargs)


# ----------------------------------------------------------------------
# Routing policies (pure, no processes)
# ----------------------------------------------------------------------

class TestRoutingPolicies:
    def views(self, n=3, dead=()):
        return [WorkerView(i, alive=i not in dead) for i in range(n)]

    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        picks = [policy.choose("", self.views()) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_dead_workers(self):
        policy = RoundRobinPolicy()
        picks = {policy.choose("", self.views(dead={1})) for _ in range(4)}
        assert picks == {0, 2}

    def test_least_loaded_prefers_idle_then_lowest_id(self):
        policy = LeastLoadedPolicy()
        views = self.views()
        views[0].in_flight = 2
        views[1].in_flight = 1
        assert policy.choose("", views) == 2
        views[2].in_flight = 3
        assert policy.choose("", views) == 1

    def test_least_loaded_breaks_ties_by_completed(self):
        policy = LeastLoadedPolicy()
        views = self.views()
        views[0].completed = 5
        views[1].completed = 1
        assert policy.choose("", views) == 2

    def test_affinity_is_stable_and_spread(self):
        policy = AffinityPolicy()
        views = self.views(n=4)
        fingerprints = [f"fp-{i}" for i in range(32)]
        placed = {fp: policy.choose(fp, views) for fp in fingerprints}
        # Stable: the same fingerprint always lands on the same worker.
        for fp, wid in placed.items():
            assert policy.choose(fp, views) == wid
        # Spread: 32 distinct fingerprints reach more than one worker.
        assert len(set(placed.values())) > 1

    def test_no_alive_workers_raises(self):
        with pytest.raises(OptimizerError):
            RoundRobinPolicy().choose("", self.views(dead={0, 1, 2}))

    def test_make_policy_by_name_and_instance(self):
        assert isinstance(make_policy("affinity"), AffinityPolicy)
        custom = RoundRobinPolicy()
        assert make_policy(custom) is custom
        with pytest.raises(OptimizerError):
            make_policy("no-such-policy")


# ----------------------------------------------------------------------
# Single-endpoint surface: identity with a governed session
# ----------------------------------------------------------------------

class TestFleetSurface:
    def test_optimize_matches_single_process_session(self, fleet_db):
        session = repro.connect(fleet_db)
        with make_fleet(fleet_db, workers=2) as fleet:
            for sql in (Q1, Q2, Q3):
                expected = session.optimize(sql)
                got = fleet.optimize(sql)
                assert got.explain() == expected.plan.explain()
                assert got.plan_source == expected.plan_source
                assert got.worker in (0, 1)

    def test_execute_returns_rows_with_provenance(self, fleet_db):
        session = repro.connect(fleet_db)
        with make_fleet(fleet_db, workers=2) as fleet:
            expected = session.execute(Q3)
            got = fleet.execute(Q3)
            assert rows_equal(got.rows, expected.rows)
            assert got.worker in (0, 1)

    def test_explain_carries_worker_rendered_text(self, fleet_db):
        session = repro.connect(fleet_db)
        with make_fleet(fleet_db, workers=2) as fleet:
            assert fleet.explain(Q1) == session.explain(Q1)

    def test_round_robin_spreads_across_workers(self, fleet_db):
        with make_fleet(fleet_db, workers=2) as fleet:
            workers = {fleet.optimize(Q3).worker for _ in range(4)}
            assert workers == {0, 1}

    def test_affinity_keeps_a_shape_on_one_worker(self, fleet_db):
        with make_fleet(fleet_db, workers=3, policy="affinity") as fleet:
            workers = {fleet.optimize(Q2).worker for _ in range(4)}
            assert len(workers) == 1
            # Same shape, different literal: same fingerprint, same worker.
            variant = Q2.replace("100", "250")
            assert fleet.optimize(variant).worker in workers

    def test_least_loaded_balances_sequential_requests(self, fleet_db):
        with make_fleet(fleet_db, workers=2, policy="least-loaded") as fleet:
            for _ in range(6):
                fleet.optimize(Q3)
            counts = [w.completed for w in fleet._views()]
            assert counts == [3, 3]

    def test_worker_errors_surface_as_typed_exceptions(self, fleet_db):
        with make_fleet(fleet_db, workers=2) as fleet:
            with pytest.raises(ParseError):
                fleet.optimize("THIS IS NOT SQL")
            # The failed request did not take the worker down.
            assert fleet.optimize(Q3).plan is not None
            assert fleet.restarts_total == 0

    def test_closed_fleet_rejects_requests(self, fleet_db):
        fleet = make_fleet(fleet_db, workers=1)
        fleet.close()
        with pytest.raises(OptimizerError):
            fleet.optimize(Q1)

    def test_bad_worker_count_rejected(self, fleet_db):
        with pytest.raises(OptimizerError):
            Fleet(fleet_db, workers=0)


# ----------------------------------------------------------------------
# Chaos: kill/wedge at every fault site; availability stays 100%
# ----------------------------------------------------------------------

class TestChaosMatrix:
    @pytest.mark.parametrize("site", FAULT_SITES)
    @pytest.mark.parametrize("kind", ["kill", "wedge"])
    def test_fault_kills_a_worker_never_a_query(self, fleet_db, site, kind):
        """The full (site x kind) matrix: worker 0 dies or wedges at its
        first hit of the site; the orchestrator restarts it exactly once,
        every request is still served, and the plans are identical to a
        healthy single-process session's."""
        session = repro.connect(fleet_db)
        expected = session.optimize(Q2).plan.explain()
        spec = FaultSpec(site=site, kind=kind, delay_seconds=30.0)
        with make_fleet(
            fleet_db, workers=2,
            per_worker_faults={0: (spec,)},
            request_timeout_seconds=2.0,
        ) as fleet:
            for _ in range(4):
                assert fleet.optimize(Q2).explain() == expected
            assert fleet.availability == 1.0
            assert fleet.restarts_total == 1
            reason = "wedged" if kind == "wedge" else "died"
            assert fleet.telemetry.value(
                "fleet_restarts_total", worker="0", reason=reason
            ) == 1

    def test_killed_worker_exits_with_the_injected_code(self, fleet_db):
        spec = FaultSpec(site="costing", kind="kill")
        fleet = make_fleet(
            fleet_db, workers=1, per_worker_faults={0: (spec,)},
        )
        victim = fleet._workers[0].process
        try:
            assert fleet.optimize(Q1).plan is not None
            victim.join(timeout=10)
            assert victim.exitcode == KILLED_EXIT_CODE
            assert fleet.restarts_total == 1
        finally:
            fleet.close()

    def test_orchestrator_driven_kill_restarts_and_serves(self, fleet_db):
        with make_fleet(fleet_db, workers=2) as fleet:
            fleet.kill_worker(1)
            assert fleet.restarts_total == 1
            workers = {fleet.optimize(Q3).worker for _ in range(4)}
            assert workers == {0, 1}
            assert fleet.availability == 1.0
            assert fleet.telemetry.value(
                "fleet_restarts_total", worker="1", reason="chaos_kill"
            ) == 1

    def test_seeded_chaos_rate_keeps_availability(self, fleet_db):
        """Elevated seeded fault rate (the soak configuration): errors
        degrade individual optimizations to the Planner worker-side,
        but every request is answered."""
        with make_fleet(
            fleet_db, workers=2, fault_seed=7, fault_rate=0.2,
        ) as fleet:
            for _ in range(8):
                assert fleet.optimize(Q2).plan is not None
            assert fleet.availability == 1.0


# ----------------------------------------------------------------------
# Health checks and drain
# ----------------------------------------------------------------------

class TestHealthAndDrain:
    def test_heartbeat_detects_and_restarts_a_wedged_worker(self, fleet_db):
        with make_fleet(
            fleet_db, workers=2, heartbeat_timeout_seconds=1.0,
        ) as fleet:
            fleet.wedge_worker(1, seconds=30.0)
            health = fleet.health_check()
            assert health == {0: "ok", 1: "restarted_wedged"}
            assert fleet.health_check() == {0: "ok", 1: "ok"}
            assert fleet.telemetry.value(
                "fleet_heartbeats_total", worker="1",
                outcome="restarted_wedged",
            ) == 1

    def test_short_wedge_does_not_desynchronize_replies(self, fleet_db):
        """A worker that wakes from a wedge nobody waited out leaves its
        ``{"ok": True}`` in the pipe; that stale reply must be dropped,
        not handed to the next request one reply late."""
        import time

        session = repro.connect(fleet_db)
        with make_fleet(fleet_db, workers=1) as fleet:
            fleet.optimize(Q1)
            fleet.wedge_worker(0, seconds=0.05)
            time.sleep(0.3)
            for sql in (Q2, Q3):
                assert fleet.optimize(sql).explain() == (
                    session.optimize(sql).plan.explain()
                )
            assert fleet.restarts_total == 0
            assert (fleet.requests_served, fleet.requests_attempted) == (3, 3)

    def test_drain_is_clean_and_collects_stats(self, fleet_db):
        fleet = make_fleet(fleet_db, workers=2)
        for _ in range(4):
            fleet.optimize(Q1)
        drained = fleet.close()
        assert set(drained) == {0, 1}
        for info in drained.values():
            assert info["drained"] is True
            assert info["exitcode"] == 0
        # Folded per-worker counters reached the fleet registry.
        total = sum(
            fleet.telemetry.value(
                "fleet_worker_queries_total", worker=str(w),
                plan_source="orca",
            )
            for w in (0, 1)
        )
        assert total == 4

    def test_close_is_idempotent(self, fleet_db):
        fleet = make_fleet(fleet_db, workers=1)
        fleet.close()
        assert fleet.close() == {}

    def test_worker_stats_report_pids_and_queries(self, fleet_db):
        with make_fleet(fleet_db, workers=2) as fleet:
            fleet.optimize(Q1)
            fleet.optimize(Q1)
            stats = fleet.worker_stats()
            assert set(stats) == {0, 1}
            pids = {s["pid"] for s in stats.values()}
            assert len(pids) == 2  # genuinely different processes
            assert sum(
                s["session"]["queries"] for s in stats.values()
            ) == 2

    def test_prometheus_exposition_carries_fleet_series(self, fleet_db):
        from repro.telemetry import parse_prometheus

        with make_fleet(fleet_db, workers=2) as fleet:
            fleet.optimize(Q1)
            fleet.health_check()
            text = fleet.prometheus()
            parse_prometheus(text)  # well-formed
            for series in (
                "repro_fleet_workers",
                "repro_fleet_worker_up",
                "repro_fleet_requests_total",
                "repro_fleet_routing_total",
                "repro_fleet_heartbeats_total",
            ):
                assert series in text, series
            assert 'outcome="ok"' in text


# ----------------------------------------------------------------------
# Differential: the fleet vs the single-process SessionPool, full corpus
# ----------------------------------------------------------------------

class TestDifferentialAgainstSessionPool:
    def test_corpus_plans_are_bit_identical(self, tpcds_db):
        """Every TPC-DS corpus query, fleet-optimized round-robin across
        2 processes, must render the exact plan text the single-process
        SessionPool produces — process sharding must not perturb the
        search."""
        pool = SessionPool(tpcds_db, max_sessions=1)
        expected = {}
        with pool:
            for query in QUERIES:
                expected[query.id] = pool.optimize(query.sql).plan.explain()
        with make_fleet(tpcds_db, workers=2) as fleet:
            for query in QUERIES:
                got = fleet.optimize(query.sql)
                assert got.explain() == expected[query.id], query.id
            assert fleet.availability == 1.0
            assert fleet.restarts_total == 0

    def test_corpus_stays_identical_under_chaos(self, tpcds_db):
        """Same differential with a kill fault planted: the restart is
        invisible in the served plans."""
        session = repro.connect(tpcds_db)
        spec = FaultSpec(site="extraction", kind="kill")
        with make_fleet(
            tpcds_db, workers=2, per_worker_faults={1: (spec,)},
        ) as fleet:
            for query in QUERIES[:6]:
                expected = session.optimize(query.sql).plan.explain()
                assert fleet.optimize(query.sql).explain() == expected
            assert fleet.availability == 1.0
            assert fleet.restarts_total == 1
