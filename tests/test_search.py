"""Search engine tests: the running example, jobs, stages, contexts."""

from __future__ import annotations

import math
from collections import Counter

import pytest

import repro
from repro.config import OptimizationStage, OptimizerConfig
from repro.memo import Memo
from repro.ops import Expression
from repro.ops.logical import JoinKind, LogicalGet, LogicalJoin
from repro.ops.physical import (
    PhysicalGatherMerge,
    PhysicalHashJoin,
    PhysicalRedistribute,
    PhysicalSort,
    PhysicalTableScan,
)
from repro.ops.scalar import ColRefExpr, ColumnFactory, Comparison
from repro.optimizer import Orca
from repro.props.distribution import SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps
from repro.search.engine import SearchEngine
from repro.verify.taqo import count_plans
from repro.workloads import queries_by_id
from repro.xforms.registry import JOIN_REORDERING_RULES

from tests.conftest import make_small_db


@pytest.fixture(scope="module")
def db():
    return make_small_db()


def running_example(db):
    """The paper's Section 4.1 query: T1 join T2 on T1.a = T2.b."""
    f = ColumnFactory()
    t1, t2 = db.table("t1"), db.table("t2")
    c1 = [f.next(f"T1.{c.name}", c.dtype) for c in t1.columns]
    c2 = [f.next(f"T2.{c.name}", c.dtype) for c in t2.columns]
    cond = Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[1]))
    tree = Expression(
        LogicalJoin(JoinKind.INNER, cond),
        [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
    )
    memo = Memo()
    memo.set_root(memo.insert(tree))
    return memo, f, c1, c2


def engine_for(db, memo, f, config=None):
    config = config or OptimizerConfig(segments=16)
    return SearchEngine(memo, config, f, db.stats)


class TestRunningExample:
    def optimize(self, db):
        memo, f, c1, c2 = running_example(db)
        engine = engine_for(db, memo, f)
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(c1[0].id),)))
        plan = engine.optimize(req)
        return memo, engine, plan, c1, c2

    def test_figure_6_plan_shape(self, db):
        """The extracted plan matches Figure 6: GatherMerge over Sort over
        a co-located hash join with a Redistribute on T2.b."""
        _memo, _engine, plan, c1, c2 = self.optimize(db)
        assert isinstance(plan.op, PhysicalGatherMerge)
        sort = plan.children[0]
        assert isinstance(sort.op, PhysicalSort)
        join = sort.children[0]
        assert isinstance(join.op, PhysicalHashJoin)
        scan_side = join.children[0]
        motion_side = join.children[1]
        assert isinstance(scan_side.op, PhysicalTableScan)
        assert scan_side.op.table.name == "t1"  # already hashed on T1.a
        assert isinstance(motion_side.op, PhysicalRedistribute)
        assert [c.id for c in motion_side.op.columns] == [c2[1].id]

    def test_exploration_generated_commuted_join(self, db):
        memo, *_ = self.optimize(db)
        root = memo.root_group()
        joins = [
            g for g in root.gexprs
            if isinstance(g.op, LogicalJoin)
        ]
        assert len(joins) == 2  # original + commuted

    def test_enforcers_in_root_group(self, db):
        memo, *_ = self.optimize(db)
        names = {g.op.name for g in memo.root_group().gexprs}
        assert {"Sort", "Gather", "GatherMerge"} <= names

    def test_all_seven_job_kinds_ran(self, db):
        _memo, engine, *_ = self.optimize(db)
        assert set(engine.kind_counts) == {
            "Exp(g)", "Exp(gexpr)", "Imp(g)", "Imp(gexpr)",
            "Opt(g,req)", "Opt(gexpr,req)", "Xform",
        }

    def test_group_hash_tables_populated(self, db):
        memo, _engine, _plan, c1, _c2 = self.optimize(db)
        root = memo.root_group()
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(c1[0].id),)))
        ctx = root.existing_context(req)
        assert ctx is not None and ctx.has_plan()
        # the weaker requests explored along the way are cached too
        assert len(root.contexts) >= 2

    def test_plan_cost_is_finite_and_positive(self, db):
        _memo, _engine, plan, *_ = self.optimize(db)
        assert math.isfinite(plan.cost) and plan.cost > 0

    def test_plan_space_counts_multiple_plans(self, db):
        memo, _engine, _plan, c1, _c2 = self.optimize(db)
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(c1[0].id),)))
        assert count_plans(memo, memo.root, req) > 5

    def test_best_cost_never_worse_than_alternatives(self, db):
        memo, _engine, plan, c1, _c2 = self.optimize(db)
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(c1[0].id),)))
        root = memo.root_group()
        ctx = root.existing_context(req)
        for gexpr in root.physical_gexprs():
            info = gexpr.plan_for(req)
            if info is not None:
                assert ctx.best_cost <= info.cost + 1e-9


class TestStages:
    def test_stage_rule_subset_restricts_search(self, db):
        memo, f, c1, c2 = running_example(db)
        stage = OptimizationStage(
            name="no-reorder",
            rules=frozenset({
                "Get2TableScan", "InnerJoin2HashJoin", "InnerJoin2NLJoin",
            }),
        )
        config = OptimizerConfig(segments=16, stages=(stage,))
        engine = engine_for(db, memo, f, config)
        plan = engine.optimize(RequiredProps(SINGLETON))
        # without JoinCommutativity only the original orientation exists
        joins = [
            g for g in memo.root_group().gexprs
            if isinstance(g.op, LogicalJoin)
        ]
        assert len(joins) == 1
        assert plan is not None

    def test_cost_threshold_short_circuits(self, db):
        memo, f, c1, c2 = running_example(db)
        stages = (
            OptimizationStage(name="s1", cost_threshold=1e12),
            OptimizationStage(name="s2"),
        )
        config = OptimizerConfig(segments=16, stages=stages)
        engine = engine_for(db, memo, f, config)
        plan = engine.optimize(RequiredProps(SINGLETON))
        assert plan.cost < 1e12

    def test_tiny_job_budget_still_yields_plan(self, db):
        """A starved stage must fall back to the safety stage (a plan is
        always produced -- condition 3 of Section 4.1 staging)."""
        memo, f, c1, c2 = running_example(db)
        stages = (OptimizationStage(name="starved", timeout_jobs=3),)
        config = OptimizerConfig(segments=16, stages=stages)
        engine = engine_for(db, memo, f, config)
        plan = engine.optimize(RequiredProps(SINGLETON))
        assert plan is not None

    def test_two_stages_accumulate_rules(self, db):
        memo, f, c1, c2 = running_example(db)
        stages = (
            OptimizationStage(
                name="cheap",
                rules=frozenset({
                    "Get2TableScan", "InnerJoin2HashJoin",
                }),
            ),
            OptimizationStage(name="full"),
        )
        config = OptimizerConfig(segments=16, stages=stages)
        engine = engine_for(db, memo, f, config)
        engine.optimize(RequiredProps(SINGLETON))
        joins = [
            g for g in memo.root_group().gexprs
            if isinstance(g.op, LogicalJoin)
        ]
        assert len(joins) == 2  # commutativity fired in stage 2


class TestRuleToggles:
    def test_disabled_rule_never_fires(self, db):
        memo, f, c1, c2 = running_example(db)
        config = OptimizerConfig(segments=16).with_disabled("InnerJoin2NLJoin")
        engine = engine_for(db, memo, f, config)
        engine.optimize(RequiredProps(SINGLETON))
        assert not any(
            g.op.name == "NLJoin" for g in memo.root_group().gexprs
        )

    def test_join_reordering_toggle(self, db):
        memo, f, c1, c2 = running_example(db)
        config = OptimizerConfig(
            segments=16, disabled_rules=JOIN_REORDERING_RULES
        )
        engine = engine_for(db, memo, f, config)
        engine.optimize(RequiredProps(SINGLETON))
        joins = [
            g for g in memo.root_group().gexprs
            if isinstance(g.op, LogicalJoin)
        ]
        assert len(joins) == 1


class TestRequestCaching:
    def test_identical_requests_computed_once(self, db):
        """Section 4.1: 'An incoming request is computed only if it does
        not already exist in group hash table.'"""
        memo, f, c1, c2 = running_example(db)
        engine = engine_for(db, memo, f)
        req = RequiredProps(SINGLETON)
        engine.optimize(req)
        jobs_first = engine.jobs_executed
        # optimizing again re-runs the stage, but every context is warm:
        engine2_jobs_before = engine.jobs_executed
        engine._run_stage(req, None, None)
        # no Opt jobs beyond cheap revisits; far fewer than the first run
        assert engine.jobs_executed - engine2_jobs_before < jobs_first


class TestSearchBreakdown:
    """``OptimizationResult.explain(search=True)``: the plan, then steps,
    finished jobs and step milliseconds per job kind."""

    @staticmethod
    def table(text: str) -> dict[str, tuple[int, int, float]]:
        lines = text.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.startswith("Search:")
        )
        rows = {}
        for line in lines[start + 2:]:
            kind, steps, done, ms, _share = line.split()
            rows[kind] = (int(steps), int(done), float(ms))
        return rows

    @pytest.mark.parametrize("query_id", ["star_brand", "cte_year_totals"])
    def test_counts_match_the_job_log_and_kind_counts(
        self, tpcds_db, query_id
    ):
        result = Orca(tpcds_db, config=OptimizerConfig(segments=8)).optimize(
            queries_by_id()[query_id].sql
        )
        stats = result.search_stats
        text = result.explain(search=True)
        assert text.startswith(result.explain())
        rows = self.table(text)
        steps = Counter(record.kind for record in stats.job_log)
        assert {kind: row[0] for kind, row in rows.items()} == steps
        done = {kind: row[1] for kind, row in rows.items()}
        assert done == stats.kind_counts
        assert sum(row[1] for row in rows.values()) == stats.jobs_executed
        ms = [row[2] for row in rows.values()]
        assert ms == sorted(ms, reverse=True)
        total = sum(record.duration for record in stats.job_log) * 1000
        assert sum(ms) == pytest.approx(total, abs=0.001 * len(ms))

    def test_a_cache_hit_ran_no_search(self, tpcds_db):
        sql = queries_by_id()["star_brand"].sql
        with repro.connect(
            tpcds_db, segments=8, enable_plan_cache=True
        ) as session:
            session.optimize(sql)
            hit = session.optimize(sql)
        assert hit.plan_source == "cache"
        text = hit.explain(search=True)
        assert text == hit.explain() + "\nSearch: no job ran"
