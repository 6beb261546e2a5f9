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
- **Concurrency** — client threads are served by different workers at
  the same time; a wedged, killed or restarting worker stalls nobody
  routed elsewhere; counters stay exact; admin calls run beside traffic.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

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


def wait_until(predicate, timeout=10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def slow_once(seconds: float) -> FaultSpec:
    """The worker's first optimization takes ``seconds`` longer."""
    return FaultSpec(site="costing", kind="delay", delay_seconds=seconds)


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

    def test_round_robin_steps_past_busy_workers(self):
        policy = RoundRobinPolicy()
        views = self.views()
        views[0].in_flight = 1
        assert [policy.choose("", views) for _ in range(4)] == [1, 2, 1, 2]
        # Nobody idle: plain rotation from the cursor, nobody starved.
        views[1].in_flight = views[2].in_flight = 1
        assert [policy.choose("", views) for _ in range(3)] == [0, 1, 2]

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

    def test_parallelism_is_refused_at_the_door(self, fleet_db):
        """Workers are daemonic and cannot fork a morsel pool, so the
        combination is an error, not a serial run nobody asked for."""
        for options in (
            {"parallelism": 2},
            {"config": repro.OptimizerConfig(segments=4, parallelism=4)},
        ):
            with pytest.raises(OptimizerError, match="daemonic") as refused:
                repro.connect_fleet(fleet_db, workers=1, **options)
            assert type(refused.value) is OptimizerError
        with make_fleet(fleet_db, workers=1, parallelism=1) as fleet:
            assert fleet.execute(Q3).rows


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

    def test_worker_ids_outside_the_fleet_are_refused(self, fleet_db):
        """``kill_worker(-1)`` must not kill the last worker, nor
        ``kill_worker(n)`` raise a bare ``IndexError``."""
        with make_fleet(fleet_db, workers=2) as fleet:
            for bad in (-1, 2):
                for chaos in (fleet.kill_worker, fleet.wedge_worker):
                    with pytest.raises(OptimizerError, match="no worker"):
                        chaos(bad)
            assert fleet.restarts_total == 0
            assert fleet.telemetry.counter("fleet_restarts_total").total() == 0
            assert fleet.health_check() == {0: "ok", 1: "ok"}

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
# A restart loses the process, not what the fleet knows (ROADMAP 5d)
# ----------------------------------------------------------------------
class TestRestartKeepsFleetState:
    def test_restarted_worker_replays_catalog_bumps(self, fleet_db):
        """``bump_catalog()`` then a kill: the respawned worker comes up
        on the bumped versions, so it cannot serve (or publish) a plan
        made under the old ones."""
        with make_fleet(fleet_db, enable_plan_cache=True) as fleet:

            def probe(worker_id: int) -> str:
                return fleet._request_to(
                    fleet._workers[worker_id], "optimize", {"sql": Q1}
                )["plan_cache"]

            # Worker 0 optimizes and publishes; worker 1 adopts the entry.
            assert (probe(0), probe(1)) == ("miss", "hit")
            before = fleet_db.version("t1")
            fleet.bump_catalog("t1")
            fleet.kill_worker(1)
            versions = {
                worker_id: stats["catalog_versions"]
                for worker_id, stats in fleet.worker_stats().items()
            }
            assert versions[0]["t1"] == versions[1]["t1"] == before + 1
            assert versions[0] == versions[1]
            # The pre-bump entry is still in the shared store (nobody has
            # swept it yet); the restarted worker must not reach it.
            assert probe(1) == "miss"
            # Worker 0 sweeps the stale entry (its own, and the shared
            # one) and adopts the plan worker 1 just published: both are
            # on the same versions again.
            assert probe(0) == "hit"
            assert fleet.shared_plans.stats()["stale_evictions"] >= 1
            stats = fleet.worker_stats()
            assert stats[0]["plan_cache"]["stale_evictions"] == 1
            assert stats[0]["plan_cache"]["shared_hits"] == 1
            # A second bump reaches the new process like any other.
            fleet.bump_catalog()
            assert (probe(1), probe(0)) == ("miss", "hit")
            assert fleet.restarts_total == 1

    def test_worker_query_counter_keeps_growing_after_a_restart(self, fleet_db):
        """``fleet_worker_queries_total`` is folded from each process's
        own running count; a new process starts from zero again."""
        def folded(fleet) -> float:
            fleet.worker_stats()
            return fleet.telemetry.counter("fleet_worker_queries_total").total()

        with make_fleet(fleet_db, workers=1) as fleet:
            for sql in (Q1, Q2, Q3):
                fleet.optimize(sql)
            assert folded(fleet) == 3
            fleet.kill_worker(0)
            for sql in (Q1, Q2):
                fleet.optimize(sql)
            assert folded(fleet) == 3 + 2

    def test_worker_forked_from_a_pool_thread_drains_clean(self, fleet_db):
        """A restart forks from the client thread that asked for it.  On
        a ``ThreadPoolExecutor`` thread the child inherits the executor's
        thread registry, and its exit hook must not join the thread the
        child is now running on."""
        with ThreadPoolExecutor(max_workers=1) as clients:
            fleet = make_fleet(fleet_db, workers=1)
            clients.submit(fleet.kill_worker, 0).result(timeout=60)
            rows = clients.submit(fleet.execute, Q2).result(timeout=60).rows
            assert len(rows) == 1
            drained = fleet.close()
        assert drained[0]["drained"] is True
        assert drained[0]["exitcode"] == 0


# ----------------------------------------------------------------------
# Concurrent clients: per-pipe locks, idle-aware routing, exact counters
# ----------------------------------------------------------------------

class TestConcurrentClients:
    def test_two_clients_are_served_at_the_same_time(self, fleet_db):
        """Each worker's first optimization takes 0.4 s longer: served
        one after the other that is 0.8 s, side by side about 0.4 s."""
        with make_fleet(fleet_db, fault_specs=(slow_once(0.4),)) as fleet, \
                ThreadPoolExecutor(max_workers=2) as clients:
            start = time.perf_counter()
            futures = [clients.submit(fleet.optimize, Q3) for _ in range(2)]
            workers = {f.result(timeout=30).worker for f in futures}
            wall = time.perf_counter() - start
        assert workers == {0, 1}
        assert wall < 0.7

    def test_a_wedged_worker_stalls_only_its_own_request(self, fleet_db):
        with make_fleet(fleet_db, request_timeout_seconds=2.0) as fleet, \
                ThreadPoolExecutor(max_workers=1) as clients:
            fleet.wedge_worker(0, seconds=30.0)
            victim = clients.submit(fleet.optimize, Q3)  # routed to worker 0
            wait_until(lambda: fleet._workers[0].lock.locked())
            waits = []
            for _ in range(20):
                start = time.perf_counter()
                assert fleet.optimize(Q3).worker == 1
                waits.append(time.perf_counter() - start)
            assert max(waits) < 1.0  # nobody sat out worker 0's timeout
            assert not victim.done()
            assert victim.result(timeout=30).plan is not None
            assert fleet.restarts_total == 1
            assert fleet.telemetry.value(
                "fleet_restarts_total", worker="0", reason="wedged"
            ) == 1
            assert fleet.availability == 1.0

    def test_kill_leaves_the_other_workers_request_alone(self, fleet_db):
        with make_fleet(
            fleet_db, per_worker_faults={1: (slow_once(1.0),)},
        ) as fleet, ThreadPoolExecutor(max_workers=1) as clients:
            assert fleet.optimize(Q3).worker == 0
            in_flight = clients.submit(fleet.optimize, Q3)
            wait_until(lambda: fleet._workers[1].lock.locked())
            fleet.kill_worker(0)
            assert not in_flight.done()  # the kill did not wait for it
            assert in_flight.result(timeout=30).worker == 1
            one = fleet._views()[1]
            assert (one.routed, one.completed, one.restarts) == (1, 1, 0)
            assert fleet.restarts_total == 1
            for outcome in ("retry_dead", "retry_wedged"):
                assert fleet.telemetry.value(
                    "fleet_requests_total", outcome=outcome
                ) == 0
            assert fleet.availability == 1.0

    def test_bookkeeping_is_exact_under_four_clients(
        self, fleet_db, eager_thread_switching
    ):
        threads, each = 4, 50
        with make_fleet(fleet_db) as fleet, \
                ThreadPoolExecutor(max_workers=threads) as clients:
            issued = []
            next_id = fleet._next_id

            def recording_next_id():
                issued.append(next_id())
                return issued[-1]

            fleet._next_id = recording_next_id
            barrier = threading.Barrier(threads)

            def client():
                barrier.wait(timeout=10)
                for _ in range(each):
                    fleet.optimize(Q1)

            for future in [clients.submit(client) for _ in range(threads)]:
                future.result(timeout=120)
            total = threads * each
            assert fleet.requests_served == fleet.requests_attempted == total
            assert fleet.telemetry.value(
                "fleet_requests_total", outcome="ok"
            ) == total
            assert fleet.telemetry.histogram(
                "fleet_request_seconds"
            ).count() == total
            views = fleet._views()
            assert sum(v.routed for v in views) == total
            assert sum(v.completed for v in views) == total
            assert [v.in_flight for v in views] == [0, 0]
            assert sorted(issued) == list(range(1, total + 1))
            assert fleet.restarts_total == 0

    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded"])
    def test_routing_goes_around_a_busy_worker(self, fleet_db, policy):
        with make_fleet(
            fleet_db, policy=policy,
            per_worker_faults={0: (slow_once(1.0),)},
        ) as fleet, ThreadPoolExecutor(max_workers=1) as clients:
            held = clients.submit(fleet.optimize, Q3)
            wait_until(lambda: fleet._views()[0].in_flight == 1)
            # Twice: the second time the rotation's cursor is on worker 0.
            assert [fleet.optimize(Q3).worker for _ in range(2)] == [1, 1]
            assert not held.done()
            assert held.result(timeout=30).worker == 0
            if policy == "round-robin":
                # Everybody idle again: strict rotation, as with one client.
                picks = [fleet.optimize(Q3).worker for _ in range(4)]
                assert picks in ([0, 1, 0, 1], [1, 0, 1, 0])

    def test_bump_catalog_beside_traffic_reaches_every_worker(self, fleet_db):
        """A statement started after ``bump_catalog()`` returns is never
        served from a plan cached under the old catalog versions, on any
        worker.  Each worker gets a shape of its own, so the shared store
        cannot hand it a fresh plan another worker already made."""
        probes = {0: Q1, 1: Q2}
        with make_fleet(fleet_db, enable_plan_cache=True) as fleet, \
                ThreadPoolExecutor(max_workers=1) as clients:

            def probe(worker_id: int) -> str:
                return fleet._request_to(
                    fleet._workers[worker_id], "optimize",
                    {"sql": probes[worker_id]},
                )["plan_cache"]

            for worker_id in probes:
                assert (probe(worker_id), probe(worker_id)) == ("miss", "hit")
            stop = threading.Event()

            def stream() -> int:
                served = 0
                while not stop.is_set():
                    fleet.execute(Q3)
                    served += 1
                return served

            traffic = clients.submit(stream)
            try:
                wait_until(lambda: fleet.requests_served >= 4)
                fleet.bump_catalog()
                after_bump = [probe(worker_id) for worker_id in probes]
                wait_until(lambda: all(
                    v.completed >= 8 for v in fleet._views()
                ))
            finally:
                stop.set()
            assert traffic.result(timeout=30) > 0
            assert after_bump == ["miss", "miss"]
            for stats in fleet.worker_stats().values():
                assert stats["plan_cache"]["stale_evictions"] >= 1
            assert fleet.availability == 1.0
            assert fleet.restarts_total == 0

    def test_health_check_reports_a_busy_worker_and_leaves_it(self, fleet_db):
        with make_fleet(
            fleet_db, per_worker_faults={0: (slow_once(0.6),)},
            heartbeat_timeout_seconds=0.2,
        ) as fleet, ThreadPoolExecutor(max_workers=1) as clients:
            held = clients.submit(fleet.optimize, Q3)
            wait_until(lambda: fleet._workers[0].lock.locked())
            assert fleet.health_check() == {0: "busy", 1: "ok"}
            assert not held.done()
            assert held.result(timeout=30).worker == 0
            assert fleet.restarts_total == 0
            assert fleet.telemetry.value(
                "fleet_heartbeats_total", worker="0", outcome="busy"
            ) == 1
            assert fleet.health_check() == {0: "ok", 1: "ok"}

    def test_close_racing_clients_neither_hangs_nor_leaks(self, fleet_db):
        fleet = make_fleet(fleet_db)
        processes = set()
        outcomes = []

        def client() -> None:
            try:
                while True:
                    # Restarts (none expected) would swap the handles.
                    processes.update(w.process for w in fleet._workers)
                    outcomes.append(fleet.optimize(Q3).plan_source)
            except OptimizerError as exc:
                outcomes.append(exc)

        with ThreadPoolExecutor(max_workers=2) as clients:
            futures = [clients.submit(client) for _ in range(2)]
            wait_until(lambda: fleet.requests_served >= 6)
            drained = fleet.close()
            for future in futures:
                future.result(timeout=30)  # only OptimizerError ends a client
        assert all(info["drained"] for info in drained.values())
        assert sum(isinstance(o, OptimizerError) for o in outcomes) == 2
        assert fleet.requests_served >= 6
        for process in processes | {w.process for w in fleet._workers}:
            process.join(timeout=10)
            assert not process.is_alive()


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
