"""Sessions as the in-process door, called from threads of one process.

Concurrency across processes is ``connect_fleet``'s.  Within one process
each thread holds its own ``Session``; what those sessions share — the
interning id table, and any registry, stats store or feedback store they
were passed — must leave every plan and row what one serial session
makes, and every session's own counters its own.
"""

from __future__ import annotations

import threading

import pytest

import repro
from repro.engine import Cluster, Executor
from repro.errors import OptimizerError
from repro.feedback import FeedbackStore
from repro.service import FaultInjector, FaultSpec
from repro.telemetry import MetricsRegistry
from repro.telemetry.stats_store import QueryStatsStore, fingerprint_query
from repro.workloads import QUERIES

from tests.conftest import rows_equal

SQL = "SELECT d.d_year, count(*) AS n FROM date_dim d GROUP BY d.d_year"
THREADS = 4

#: Counted per process, not per query: how many intern lookups hit
#: depends on what the process interned before.
PROCESS_COUNTERS = {"repro_optimizer_intern_events_total"}


def counter_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Each counter family's sum over its series."""
    return {
        name: sum(series["value"] for series in family["series"])
        for name, family in registry.snapshot()["families"].items()
        if family["type"] == "counter" and name not in PROCESS_COUNTERS
    }


def run_threads(work, threads: int = THREADS) -> list:
    """Run ``work(slot)`` on ``threads`` threads released together;
    return the results by slot, re-raising the first thread's error."""
    barrier = threading.Barrier(threads)
    results: list = [None] * threads
    errors: list = []

    def body(slot: int) -> None:
        try:
            barrier.wait(timeout=10)
            results[slot] = work(slot)
        except BaseException as exc:  # surfaced below, in the test thread
            errors.append(exc)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in pool)
    if errors:
        raise errors[0]
    return results


class TestSessionDoor:
    def test_one_shot_optimize_and_execute(self, tpcds_db):
        with repro.connect(tpcds_db, segments=4) as session:
            assert session.optimize(SQL).plan_source == "orca"
            assert len(session.execute(SQL).rows) > 0
            assert session.metrics.queries == 2
            assert session.metrics.plan_sources == {"orca": 2}

    def test_closed_session_rejects_calls(self, tpcds_db):
        with repro.connect(tpcds_db, segments=4, name="done") as session:
            session.optimize(SQL)
        with pytest.raises(OptimizerError, match="'done' is closed"):
            session.optimize(SQL)
        with pytest.raises(OptimizerError, match="'done' is closed"):
            session.execute(SQL)
        assert session.metrics.queries == 1


@pytest.mark.usefixtures("eager_thread_switching")
class TestThreadedSessions:
    @pytest.mark.parametrize(
        "query", QUERIES[:8], ids=[q.id for q in QUERIES[:8]]
    )
    def test_plans_match_one_serial_session(self, tpcds_db, query):
        """Threads optimizing the same statement at once, each on its
        own session but sharing one registry and one stats store, all
        render the plan one serial session renders, and the shared
        registry and store sum every thread's call."""
        serial = MetricsRegistry()
        with repro.connect(tpcds_db, telemetry=serial) as session:
            expected = session.optimize(query.sql).plan.explain()
        registry, store = MetricsRegistry(), QueryStatsStore()

        def optimize(slot: int) -> str:
            with repro.connect(
                tpcds_db, name=f"t{slot}", telemetry=registry,
                stats_store=store,
            ) as own:
                return own.optimize(query.sql).plan.explain()

        assert run_threads(optimize) == [expected] * THREADS
        assert counter_totals(registry) == {
            name: THREADS * total
            for name, total in counter_totals(serial).items()
        }
        assert registry.histogram("optimization_seconds").count() == THREADS
        stats = store.lookup(query.sql)
        assert (stats.calls, stats.plan_sources) == (
            THREADS, {"orca": THREADS}
        )

    def test_shared_stores_lose_no_update(self, tpcds_db):
        """Sessions on threads fold into the registry, stats store and
        feedback store they were passed.  Each fold is a read-modify-write;
        with every thread folding the same statement at once, none of
        them may be lost."""
        # Feedback on, so the plan's nodes carry the shapes a feedback
        # store keys on.
        with repro.connect(
            tpcds_db, segments=4, enable_cardinality_feedback=True
        ) as session:
            result = session.optimize(SQL)
        execution = Executor(Cluster(tpcds_db, segments=4)).execute(
            result.plan, result.output_cols, analyze=True
        )
        key = fingerprint_query(SQL)
        # Statements the threads admit into the store side by side.
        keys = [(f"f{n}", f"q{n}") for n in range(500)]
        registry, store, feedback = (
            MetricsRegistry(), QueryStatsStore(), FeedbackStore()
        )
        folds, ingests = 20000, 2000

        def count(slot: int) -> None:
            for _ in range(folds):
                registry.inc("queries_total", plan_source="orca")
                registry.gauge("in_flight").inc()
                registry.observe("optimization_seconds", 0.001)

        def record(slot: int) -> None:
            for n in range(folds):
                store.record_optimization(keys[n % len(keys)], result)

        shape = result.plan.shape

        def ingest(slot: int) -> None:
            for _ in range(ingests):
                store.record_execution(key, execution)
                feedback.ingest(result.plan, execution.analysis)
                feedback.correction(shape)

        for work in (count, record, ingest):
            run_threads(work)
        assert (
            registry.value("queries_total", plan_source="orca"),
            registry.value("in_flight"),
            registry.histogram("optimization_seconds").count(),
            sum(stats.calls for stats in store.entries()),
        ) == (THREADS * folds,) * 4
        assert (
            store.get(key[0]).executions, feedback.ingests, feedback.generation,
            feedback.lookup_hits + feedback.lookup_misses,
        ) == (THREADS * ingests,) * 4
        assert {e.observations for e in feedback.entries()} == {
            THREADS * ingests
        }

    def test_rows_match_one_serial_session(self, tpcds_db):
        queries = QUERIES[:3]
        with repro.connect(tpcds_db, segments=4) as session:
            expected = [session.execute(q.sql).rows for q in queries]

        def execute(slot: int) -> list:
            # Each thread walks the queries in its own rotation, so
            # different statements run side by side.
            order = [(slot + n) % len(queries) for n in range(len(queries))]
            with repro.connect(tpcds_db, segments=4) as own:
                got = {i: own.execute(queries[i].sql).rows for i in order}
            return [got[i] for i in range(len(queries))]

        for rows in run_threads(execute):
            assert all(map(rows_equal, rows, expected))

    def test_each_session_keeps_its_own_metrics(self, tpcds_db):
        def optimize(slot: int):
            own = repro.connect(tpcds_db, segments=4, name=f"t{slot}")
            for _ in range(slot + 1):
                own.optimize(SQL)
            return own

        sessions = run_threads(optimize)
        assert [s.name for s in sessions] == [f"t{i}" for i in range(THREADS)]
        assert [s.metrics.queries for s in sessions] == list(
            range(1, THREADS + 1)
        )
        assert all(
            s.metrics.plan_sources == {"orca": s.metrics.queries}
            for s in sessions
        )

    def test_each_plan_cache_warms_on_its_own(self, tpcds_db):
        def optimize_twice(slot: int) -> tuple:
            own = repro.connect(tpcds_db, segments=4, enable_plan_cache=True)
            first, second = own.optimize(SQL), own.optimize(SQL)
            return (
                first.plan_cache, second.plan_source,
                first.plan.explain() == second.plan.explain(),
            )

        assert run_threads(optimize_twice) == [("miss", "cache", True)] * THREADS

    def test_a_fault_falls_back_only_its_own_session(self, tpcds_db):
        def optimize(slot: int):
            faults = None
            if slot == 0:
                faults = FaultInjector(
                    [FaultSpec(site="costing", at=1, times=1)]
                )
            own = repro.connect(tpcds_db, segments=4, faults=faults)
            return own.optimize(SQL).plan_source, own.metrics.fallbacks

        assert run_threads(optimize) == [("planner_fallback", 1)] + [
            ("orca", 0)
        ] * (THREADS - 1)
