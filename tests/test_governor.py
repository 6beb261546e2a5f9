"""Resource governor: deadlines, job limits, quotas, best-so-far plans.

Covers the GPOS-style cooperative enforcement layer (DESIGN.md,
"Sessions, governance and fallback"): the scheduler polls the governor
once per job step, typed errors unwind with the Memo intact, and the
engine degrades to the best plan found so far when the deadline hits
after at least one complete alternative was costed.
"""

import pytest

from repro.config import OptimizerConfig
from repro.engine.cluster import Cluster
from repro.engine.executor import Executor
from repro.errors import MemoryQuotaExceeded, SearchTimeout
from repro.gpos.governor import ResourceGovernor
from repro.gpos.scheduler import Job, JobScheduler
from repro.optimizer import Orca

JOIN_SQL = (
    "SELECT d.d_year, sum(ss.ss_sales_price) AS s "
    "FROM store_sales ss, date_dim d "
    "WHERE ss.ss_sold_date_sk = d.d_date_sk "
    "GROUP BY d.d_year ORDER BY d.d_year"
)


class TestGovernorUnit:
    def test_ungoverned_config_yields_no_governor(self):
        assert ResourceGovernor.from_config(OptimizerConfig()) is None

    def test_from_config_maps_every_limit(self):
        gov = ResourceGovernor.from_config(
            OptimizerConfig(
                search_deadline_ms=250.0,
                search_job_limit=1000,
                memory_quota_bytes=1 << 20,
                memory_check_stride=8,
            )
        )
        assert gov.deadline_seconds == pytest.approx(0.25)
        assert gov.job_limit == 1000
        assert gov.memory_quota_bytes == 1 << 20
        assert gov.memory_check_stride == 8

    def test_job_limit_trips_search_timeout(self):
        gov = ResourceGovernor(job_limit=5)
        for _ in range(5):
            gov.on_job_step()
        with pytest.raises(SearchTimeout) as exc_info:
            gov.on_job_step()
        assert exc_info.value.job_limit == 5
        assert exc_info.value.steps == 6
        assert gov.timeouts == 1

    def test_deadline_trips_search_timeout(self):
        fake_now = [0.0]
        gov = ResourceGovernor(deadline_seconds=1.0, clock=lambda: fake_now[0])
        gov.arm()
        gov.on_job_step()  # within deadline
        fake_now[0] = 1.5
        with pytest.raises(SearchTimeout) as exc_info:
            gov.on_job_step()
        assert exc_info.value.elapsed_seconds == pytest.approx(1.5)
        assert exc_info.value.deadline_seconds == pytest.approx(1.0)

    def test_memory_probe_checked_on_stride(self):
        gov = ResourceGovernor(memory_quota_bytes=100, memory_check_stride=4)
        gov.set_memory_probe(lambda: 500)
        # Steps 1-3 skip the probe; the 4th trips the quota.
        for _ in range(3):
            gov.on_job_step()
        with pytest.raises(MemoryQuotaExceeded) as exc_info:
            gov.on_job_step()
        assert exc_info.value.used_bytes == 500
        assert exc_info.value.quota_bytes == 100
        assert gov.quota_trips == 1

    def test_charge_memory_checks_immediately(self):
        gov = ResourceGovernor(memory_quota_bytes=1000, memory_check_stride=64)
        gov.charge_memory(400)
        assert gov.charged_bytes == 400
        with pytest.raises(MemoryQuotaExceeded):
            gov.charge_memory(700)
        assert gov.peak_memory_bytes >= 1100

    def test_arm_resets_per_query_state_but_keeps_peaks(self):
        gov = ResourceGovernor(job_limit=100, memory_quota_bytes=1 << 30)
        gov.on_job_step()
        gov.charge_memory(123)
        peak = gov.peak_memory_bytes
        gov.arm()
        assert gov.steps == 0
        assert gov.charged_bytes == 0
        assert gov.peak_memory_bytes == peak  # session-lifetime metric


class ChainJob(Job):
    """Spawns a chain of ``depth`` jobs, one child per parent."""

    kind = "chain"

    def __init__(self, depth):
        super().__init__()
        self.depth = depth

    def step(self, scheduler):
        if self._step == 0 and self.depth > 0:
            self._step = 1
            return [ChainJob(self.depth - 1)]
        return None


class TestSchedulerIntegration:
    def test_serial_scheduler_polls_governor(self):
        gov = ResourceGovernor(job_limit=3)
        with pytest.raises(SearchTimeout):
            JobScheduler(governor=gov).run(ChainJob(10))
        assert gov.steps == 4

    def test_ungoverned_scheduler_unaffected(self):
        sched = JobScheduler()
        sched.run(ChainJob(10))
        assert sched.jobs_executed >= 10


class TestGovernedOptimizer:
    def test_tiny_job_limit_raises_before_any_plan(self, tpcds_db):
        orca = Orca(
            tpcds_db,
            config=OptimizerConfig(segments=4, search_job_limit=3),
        )
        with pytest.raises(SearchTimeout):
            orca.optimize(JOIN_SQL)

    def test_quota_raises_memory_error(self, tpcds_db):
        orca = Orca(
            tpcds_db,
            config=OptimizerConfig(
                segments=4, memory_quota_bytes=10_000, memory_check_stride=1
            ),
        )
        with pytest.raises(MemoryQuotaExceeded):
            orca.optimize(JOIN_SQL)

    def test_memory_bytes_excludes_the_tracer(self, tpcds_db):
        """The memo and every group hold the session's tracer; its span
        and event lists grow with session age and are not memo state."""
        from repro.trace import Tracer

        plain = Orca(tpcds_db, config=OptimizerConfig(segments=4))
        untraced = plain.optimize(JOIN_SQL).search_stats.memory_bytes
        tracer = Tracer()
        traced = Orca(tpcds_db, config=OptimizerConfig(segments=4), tracer=tracer)
        sizes = [
            traced.optimize(JOIN_SQL).search_stats.memory_bytes
            for _ in range(50)
        ]
        assert len(tracer.events) > 10_000
        assert sizes[0] == sizes[49] == untraced

    def test_quota_does_not_trip_on_trace_data(self, tpcds_db):
        from repro.trace import Tracer

        footprint = Orca(
            tpcds_db, config=OptimizerConfig(segments=4)
        ).optimize(JOIN_SQL).search_stats.memory_bytes
        orca = Orca(
            tpcds_db,
            config=OptimizerConfig(
                segments=4, memory_quota_bytes=footprint * 2,
                memory_check_stride=16,
            ),
            tracer=Tracer(),
        )
        for _ in range(20):
            assert orca.optimize(JOIN_SQL).plan_source == "orca"

    def test_generous_limit_is_invisible(self, tpcds_db):
        governed = Orca(
            tpcds_db,
            config=OptimizerConfig(segments=4, search_job_limit=10_000_000),
        ).optimize(JOIN_SQL)
        free = Orca(
            tpcds_db, config=OptimizerConfig(segments=4)
        ).optimize(JOIN_SQL)
        assert governed.plan_source == "orca"
        assert governed.plan.cost == pytest.approx(free.plan.cost)

    def _full_step_count(self, db):
        """Governor job steps a complete, unbounded search takes."""
        orca = Orca(
            db,
            config=OptimizerConfig(segments=4, search_job_limit=10**9),
        )
        result = orca.optimize(JOIN_SQL)
        assert result.plan_source == "orca"
        return orca.governor.steps, result

    def test_partial_plan_on_midway_timeout(self, tpcds_db):
        """A budget that expires after the first full costing pass yields
        a best-so-far plan: executable, finite cost, never better than
        the unbounded optimum."""
        full_steps, full = self._full_step_count(tpcds_db)
        optimum = full.plan.cost

        partial = None
        # Walk the budget down from just-under-complete until it lands in
        # the window where a plan exists but the search is unfinished.
        for limit in range(full_steps - 1, full_steps // 2, -1):
            orca = Orca(
                tpcds_db,
                config=OptimizerConfig(segments=4, search_job_limit=limit),
            )
            try:
                result = orca.optimize(JOIN_SQL)
            except SearchTimeout:
                break  # budgets below this have no plan at all
            if result.plan_source == "orca_partial":
                partial = result
                break
        assert partial is not None, "no budget produced a partial plan"
        assert partial.plan.cost >= optimum - 1e-9
        # The degraded plan must actually run, and agree with the optimum.
        cluster = Cluster(tpcds_db, segments=4)
        rows = Executor(cluster).execute(
            partial.plan, partial.output_cols
        ).rows
        full_rows = Executor(cluster).execute(
            full.plan, full.output_cols
        ).rows
        assert rows == full_rows

    def test_partial_plans_never_enter_plan_cache(self, tpcds_db):
        full_steps, _ = self._full_step_count(tpcds_db)
        for limit in range(full_steps - 1, full_steps // 2, -1):
            config = OptimizerConfig(
                segments=4, search_job_limit=limit, enable_plan_cache=True
            )
            orca = Orca(tpcds_db, config=config)
            try:
                result = orca.optimize(JOIN_SQL)
            except SearchTimeout:
                break
            if result.plan_source == "orca_partial":
                assert len(orca.plan_cache) == 0
                return
        pytest.fail("no budget produced a partial plan")
