"""Orca facade and legacy Planner tests, including feature ablations."""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.xforms.registry import JOIN_REORDERING_RULES

from tests.conftest import make_partitioned_db, make_small_db, rows_equal


@pytest.fixture(scope="module")
def db():
    return make_small_db()


@pytest.fixture(scope="module")
def part_db():
    return make_partitioned_db()


def execute(db, plan, cols, segments=8):
    return Executor(Cluster(db, segments=segments)).execute(plan, cols)


CORRELATED_SQL = (
    "SELECT a FROM t1 WHERE b > (SELECT avg(b) FROM t2 WHERE t2.a = t1.a)"
)

CTE_SQL = (
    "WITH v AS (SELECT c, count(*) AS n FROM t1 GROUP BY c) "
    "SELECT v1.c, v1.n FROM v v1, v v2 WHERE v1.n > v2.n"
)

DPE_SQL = (
    "SELECT f.v FROM fact f, dim d WHERE f.day = d.day AND d.tag = 'hot'"
)


class TestOrcaFacade:
    def test_result_metadata(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 ORDER BY a")
        assert result.search_stats.num_groups > 0
        assert result.search_stats.num_gexprs >= result.search_stats.num_groups
        assert result.search_stats.jobs_executed > 0
        assert result.search_stats.xform_count > 0
        assert result.opt_time_seconds > 0
        assert result.search_stats.memory_bytes > 0
        assert "Opt(g,req)" in result.search_stats.kind_counts

    def test_explain_readable(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 ORDER BY a")
        text = result.explain()
        assert "GatherMerge" in text or "Sort" in text

    def test_deterministic_plans(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        sql = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a"
        p1 = orca.optimize(sql).plan
        p2 = orca.optimize(sql).plan
        assert p1.explain() == p2.explain()

    def test_accepts_pre_parsed_statement(self, db):
        from repro.sql.parser import parse

        orca = Orca(db, config=OptimizerConfig(segments=8))
        stmt = parse("SELECT a FROM t1 LIMIT 1")
        assert orca.optimize(stmt).plan is not None

    def test_segments_affect_costs(self, db):
        sql = "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b"
        cost_2 = Orca(db, config=OptimizerConfig(segments=2)).optimize(sql).plan.cost
        cost_32 = Orca(db, config=OptimizerConfig(segments=32)).optimize(sql).plan.cost
        assert cost_2 != cost_32


class TestAblations:
    """Each Section 7.2.2 feature can be disabled and measurably hurts."""

    def run_both(self, db, sql, config_off, segments=8):
        on = Orca(db, config=OptimizerConfig(segments=segments)).optimize(sql)
        off = Orca(db, config=config_off).optimize(sql)
        out_on = execute(db, on.plan, on.output_cols, segments)
        out_off = execute(db, off.plan, off.output_cols, segments)
        assert rows_equal(out_on.rows, out_off.rows)
        return out_on.simulated_seconds(), out_off.simulated_seconds()

    def test_decorrelation_ablation(self, db):
        t_on, t_off = self.run_both(
            db, CORRELATED_SQL,
            OptimizerConfig(segments=8, enable_decorrelation=False),
        )
        assert t_off > t_on * 10

    def test_cte_sharing_ablation(self, db):
        t_on, t_off = self.run_both(
            db, CTE_SQL,
            OptimizerConfig(segments=8, enable_cte_sharing=False),
        )
        assert t_off > t_on

    def test_partition_elimination_ablation(self, part_db):
        t_on, t_off = self.run_both(
            part_db, DPE_SQL,
            OptimizerConfig(segments=8, enable_partition_elimination=False),
        )
        assert t_off > t_on

    def test_join_reordering_ablation_still_correct(self, db):
        sql = (
            "SELECT count(*) FROM t1, t2 "
            "WHERE t1.a = t2.b AND t2.a < 50"
        )
        t_on, t_off = self.run_both(
            db, sql,
            OptimizerConfig(segments=8, disabled_rules=JOIN_REORDERING_RULES),
        )
        assert t_on <= t_off * 1.5  # reordering never makes it much worse


class TestPlanner:
    def test_planner_correct_on_suite(self, db):
        sqls = [
            "SELECT a, b FROM t1 WHERE b > 90 ORDER BY a, b",
            "SELECT c, count(*) FROM t1 GROUP BY c",
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b",
            "SELECT a FROM t1 ORDER BY b DESC LIMIT 5",
            CORRELATED_SQL,
        ]
        orca = Orca(db, config=OptimizerConfig(segments=8))
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        for sql in sqls:
            r_orca = orca.optimize(sql)
            r_planner = planner.optimize(sql)
            out_orca = execute(db, r_orca.plan, r_orca.output_cols)
            out_planner = execute(db, r_planner.plan, r_planner.output_cols)
            assert rows_equal(out_orca.rows, out_planner.rows), sql

    def test_planner_keeps_correlated_execution(self, db):
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(CORRELATED_SQL)
        assert any(
            node.op.name == "CorrelatedNLJoin" for node in result.plan.walk()
        )

    def test_orca_decorrelates_same_query(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(CORRELATED_SQL)
        assert not any(
            node.op.name == "CorrelatedNLJoin" for node in result.plan.walk()
        )

    def test_planner_inlines_ctes(self, db):
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(CTE_SQL)
        assert not any(
            node.op.name in ("CTEProducer", "CTEConsumer", "Sequence")
            for node in result.plan.walk()
        )

    def test_orca_shares_ctes(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(CTE_SQL)
        names = [node.op.name for node in result.plan.walk()]
        assert "CTEProducer" in names
        assert names.count("CTEConsumer") == 2

    def test_planner_never_uses_dynamic_scans(self, part_db):
        planner = LegacyPlanner(part_db, OptimizerConfig(segments=8))
        result = planner.optimize(DPE_SQL)
        assert not any(
            node.op.name == "DynamicScan" for node in result.plan.walk()
        )

    def test_planner_static_pruning_works(self, part_db):
        planner = LegacyPlanner(part_db, OptimizerConfig(segments=8))
        result = planner.optimize("SELECT v FROM fact WHERE day <= 100")
        scan = next(
            node for node in result.plan.walk() if node.op.name == "TableScan"
        )
        assert scan.op.partitions == (0,)

    def test_planner_broadcast_heuristic(self, db):
        """A small filtered side gets broadcast rather than redistributed."""
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.b = t2.b"
        )
        # t2 (500 rows) is much smaller than t1 (5000): broadcast inner
        assert any(
            node.op.name == "Broadcast" for node in result.plan.walk()
        )

    def test_planner_root_enforcement(self, db):
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize("SELECT a FROM t1 ORDER BY a")
        from repro.props.distribution import SingletonDist

        assert isinstance(result.plan.delivered.dist, SingletonDist)
        assert result.plan.delivered.order.keys


class TestOrcaVsPlannerShape:
    def test_orca_wins_on_correlated(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        r1 = orca.optimize(CORRELATED_SQL)
        r2 = planner.optimize(CORRELATED_SQL)
        t1 = execute(db, r1.plan, r1.output_cols).simulated_seconds()
        t2 = execute(db, r2.plan, r2.output_cols).simulated_seconds()
        assert t2 / t1 > 20

    def test_orca_wins_on_cte(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        r1 = orca.optimize(CTE_SQL)
        r2 = planner.optimize(CTE_SQL)
        t1 = execute(db, r1.plan, r1.output_cols).simulated_seconds()
        t2 = execute(db, r2.plan, r2.output_cols).simulated_seconds()
        assert t2 > t1
