"""Job scheduler tests: suspension, per-goal queues, makespan simulation."""

from __future__ import annotations

import pytest

from repro.gpos.memory import MemoryTracker, deep_sizeof
from repro.gpos.scheduler import Job, JobRecord, JobScheduler, simulate_makespan


class LeafJob(Job):
    kind = "leaf"

    def __init__(self, log, name, goal=None):
        super().__init__()
        self.log = log
        self.name = name
        self.goal = goal

    def step(self, scheduler):
        self.log.append(self.name)
        return None


class ParentJob(Job):
    kind = "parent"

    def __init__(self, log, name, children):
        super().__init__()
        self.log = log
        self.name = name
        self._children = children
        self.goal = ("parent", name)

    def step(self, scheduler):
        if self._step == 0:
            self._step = 1
            self.log.append(f"{self.name}:spawn")
            return list(self._children)
        self.log.append(f"{self.name}:resume")
        return None


class TestScheduler:
    def test_leaf_runs(self):
        log = []
        sched = JobScheduler()
        sched.run(LeafJob(log, "a"))
        assert log == ["a"]
        assert sched.jobs_executed == 1

    def test_parent_suspends_until_children_finish(self):
        log = []
        children = [LeafJob(log, f"c{i}") for i in range(3)]
        sched = JobScheduler()
        sched.run(ParentJob(log, "p", children))
        assert log[0] == "p:spawn"
        assert log[-1] == "p:resume"
        assert set(log[1:-1]) == {"c0", "c1", "c2"}

    def test_nested_dependencies(self):
        log = []
        inner = ParentJob(log, "inner", [LeafJob(log, "leaf")])
        outer = ParentJob(log, "outer", [inner])
        JobScheduler().run(outer)
        assert log == [
            "outer:spawn", "inner:spawn", "leaf", "inner:resume",
            "outer:resume",
        ]

    def test_same_goal_deduplicated(self):
        """Per-goal queues: a second job with a running goal just waits."""
        log = []
        shared_goal = ("leaf", "shared")
        c1 = LeafJob(log, "only-once", goal=shared_goal)
        c2 = LeafJob(log, "never-runs", goal=shared_goal)
        p1 = ParentJob(log, "p1", [c1])
        p2 = ParentJob(log, "p2", [c2])
        top = ParentJob(log, "top", [p1, p2])
        JobScheduler().run(top)
        assert log.count("only-once") + log.count("never-runs") == 1
        assert "p1:resume" in log and "p2:resume" in log

    def test_completed_goal_skipped(self):
        log = []
        goal = ("leaf", "done")
        sched = JobScheduler()
        sched.run(LeafJob(log, "first", goal=goal))
        sched.run(ParentJob(log, "p", [LeafJob(log, "second", goal=goal)]))
        assert "second" not in log
        assert "p:resume" in log

    def test_job_budget_stops_work(self):
        log = []
        children = [LeafJob(log, f"c{i}") for i in range(10)]
        sched = JobScheduler()
        sched.run(ParentJob(log, "p", children), job_budget=3)
        assert len(log) <= 3

    def test_kind_counts(self):
        log = []
        sched = JobScheduler()
        sched.run(ParentJob(log, "p", [LeafJob(log, "c")]))
        assert sched.kind_counts == {"leaf": 1, "parent": 1}

    def test_job_log_records_steps(self):
        log = []
        sched = JobScheduler()
        sched.run(ParentJob(log, "p", [LeafJob(log, "c")]))
        assert len(sched.job_log) == 3  # spawn, leaf, resume


class ChainJob(Job):
    """Spawns ``count`` goal-less leaves one after another; each leaf is
    unreferenced (and collectable) before the next one is created."""

    kind = "chain"
    goal = ("chain",)

    def __init__(self, count):
        super().__init__()
        self.left = count

    def step(self, scheduler):
        if self.left == 0:
            return None
        self.left -= 1
        return [LeafJob([], "leaf")]


class TestJobIds:
    def test_short_lived_goalless_jobs_get_distinct_ids(self):
        # CPython reuses a freed job's address for the next allocation of
        # the same size, so ids keyed by id(job) collide here.
        scheduler = JobScheduler()
        scheduler.run(ChainJob(200))
        assert len({r.job_id for r in scheduler.job_log}) == 201
        leaf_ids = [r.job_id for r in scheduler.job_log if r.kind == "leaf"]
        assert len(set(leaf_ids)) == 200

    def test_ids_follow_first_seen_order(self):
        log = []
        kids = [LeafJob(log, f"k{i}", goal=("k", i)) for i in range(3)]
        scheduler = JobScheduler()
        scheduler.run(ParentJob(log, "p", kids))
        # Untraced: a spawning step numbers its children before itself.
        assert [k.job_id for k in kids] == [0, 1, 2]
        assert scheduler.job_log[0].job_id == 3
        assert scheduler.job_log[0].depends_on == (0, 1, 2)


class TestMakespanSimulation:
    def test_empty(self):
        assert simulate_makespan([], 4) == 0.0

    def test_serial_chain_no_speedup(self):
        # one job spawning one child spawning another: pure chain
        records = [
            JobRecord(0, "a", 1.0, (1,)),
            JobRecord(1, "b", 1.0, (2,)),
            JobRecord(2, "c", 1.0),
            JobRecord(1, "b", 1.0),
            JobRecord(0, "a", 1.0),
        ]
        t1 = simulate_makespan(records, 1)
        t8 = simulate_makespan(records, 8)
        assert t8 == pytest.approx(t1)

    def test_wide_fanout_scales(self):
        # a parent spawning 16 independent unit-cost children
        records = [JobRecord(0, "p", 0.0, tuple(range(1, 17)))]
        records += [JobRecord(i, "c", 1.0) for i in range(1, 17)]
        records += [JobRecord(0, "p", 0.0)]
        t1 = simulate_makespan(records, 1)
        t4 = simulate_makespan(records, 4)
        t16 = simulate_makespan(records, 16)
        assert t1 == pytest.approx(16.0, rel=0.01)
        assert t4 == pytest.approx(4.0, rel=0.01)
        assert t16 == pytest.approx(1.0, rel=0.01)

    def test_more_workers_never_slower(self):
        records = [JobRecord(0, "p", 0.5, (1, 2, 3))]
        records += [JobRecord(i, "c", float(i)) for i in (1, 2, 3)]
        records += [JobRecord(0, "p", 0.5)]
        times = [simulate_makespan(records, k) for k in (1, 2, 4, 8)]
        assert all(b <= a + 1e-9 for a, b in zip(times, times[1:]))

    def test_real_optimization_job_graph_has_parallelism(self):
        """The recorded job DAG of a real optimization must admit
        multi-worker speedup (Section 4.2's premise)."""
        from tests.conftest import make_small_db
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca

        db = make_small_db(t1_rows=500, t2_rows=100)
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b AND t1.b > 5 "
            "ORDER BY t1.a"
        )
        records = result.search_stats.job_log
        t1 = simulate_makespan(records, 1)
        t8 = simulate_makespan(records, 8)
        assert t8 < t1


class TestMemoryTracker:
    def test_charge_and_total(self):
        tracker = MemoryTracker()
        tracker.charge("memo", 100)
        tracker.charge("memo", 50)
        tracker.charge("stats", 10)
        assert tracker.total() == 160
        assert tracker.pools() == {"memo": 150, "stats": 10}

    def test_charge_object(self):
        tracker = MemoryTracker()
        tracker.charge_object("x", {"a": [1, 2, 3]})
        assert tracker.total() > 0

    def test_deep_sizeof_grows_with_content(self):
        small = deep_sizeof([1])
        big = deep_sizeof(list(range(1000)))
        assert big > small

    def test_deep_sizeof_handles_cycles(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) > 0

    def test_deep_sizeof_follows_slots(self):
        class Slotted:
            __slots__ = ("payload", "unset")

            def __init__(self):
                self.payload = list(range(1000))

        class Child(Slotted):
            __slots__ = ("extra",)

            def __init__(self):
                super().__init__()
                self.extra = list(range(1000, 2000))

        class Open(Slotted):  # inherited slot beside a __dict__
            def __init__(self):
                super().__init__()
                self.more = list(range(2000, 3000))

        one_list = deep_sizeof(list(range(1000)))
        assert deep_sizeof(Slotted()) > one_list
        assert deep_sizeof(Child()) > 2 * one_list
        assert deep_sizeof(Open()) > 2 * one_list

    def test_deep_sizeof_skips_preseeded_ids(self):
        shared = list(range(1000))
        holder = {"keep": ["a", "b"], "skip": shared}
        assert deep_sizeof(holder) - deep_sizeof(holder, {id(shared)}) == (
            deep_sizeof(shared)
        )

    def test_reset(self):
        tracker = MemoryTracker()
        tracker.charge("x", 5)
        tracker.reset()
        assert tracker.total() == 0
