"""Statistics derivation on the Memo and cost model tests."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import OptimizerConfig
from repro.cost.model import CostModel, CostParams, local_rows
from repro.memo import Memo
from repro.memo.context import StatsObject
from repro.optimizer import Orca
from repro.ops import Expression
from repro.ops.logical import (
    JoinKind,
    LogicalGbAgg,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalSelect,
    LogicalUnionAll,
)
from repro.ops import physical as ph
from repro.ops.scalar import (
    AggFunc,
    ColRefExpr,
    ColumnFactory,
    Comparison,
    Literal,
)
from repro.props.distribution import REPLICATED, SINGLETON, HashedDist
from repro.props.order import ANY_ORDER
from repro.props.required import DerivedProps
from repro.stats.derivation import StatsDeriver, promise
from repro.stats.selectivity import apply_predicate, estimate_selectivity
from repro.workloads import QUERIES
from repro.catalog.statistics import ColumnStats

from tests import pins
from tests.conftest import make_small_db


@pytest.fixture(scope="module")
def db():
    return make_small_db()


@pytest.fixture()
def ctx(db):
    f = ColumnFactory()
    t1, t2 = db.table("t1"), db.table("t2")
    c1 = [f.next(f"t1.{c.name}", c.dtype) for c in t1.columns]
    c2 = [f.next(f"t2.{c.name}", c.dtype) for c in t2.columns]
    return f, t1, t2, c1, c2


def derive(db, tree):
    memo = Memo()
    gid = memo.insert(tree)
    memo.set_root(gid)
    deriver = StatsDeriver(memo, OptimizerConfig(segments=8), db.stats)
    return deriver.derive(gid), memo


class TestDerivation:
    def test_get_stats_from_catalog(self, db, ctx):
        _f, t1, _t2, c1, _c2 = ctx
        stats, _ = derive(db, Expression(LogicalGet(t1, c1)))
        assert stats.row_count == 5000
        assert stats.column(c1[0].id).ndv == db.stats("t1").column("a").ndv

    def test_select_reduces_rows(self, db, ctx):
        _f, t1, _t2, c1, _c2 = ctx
        pred = Comparison(">", ColRefExpr(c1[1]), Literal(50))
        tree = Expression(
            LogicalSelect(pred), [Expression(LogicalGet(t1, c1))]
        )
        stats, _ = derive(db, tree)
        true_count = sum(1 for _a, b, _c in db.scan("t1") if b > 50)
        assert stats.row_count == pytest.approx(true_count, rel=0.2)

    def test_join_cardinality_close_to_actual(self, db, ctx):
        _f, t1, t2, c1, c2 = ctx
        cond = Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[1]))
        tree = Expression(
            LogicalJoin(JoinKind.INNER, cond),
            [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
        )
        stats, _ = derive(db, tree)
        from collections import Counter

        by_b = Counter(b for _a, b in db.scan("t2"))
        actual = sum(by_b.get(a, 0) for a, _b, _c in db.scan("t1"))
        assert stats.row_count == pytest.approx(actual, rel=0.35)

    def test_semi_join_bounded_by_left(self, db, ctx):
        _f, t1, t2, c1, c2 = ctx
        cond = Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[1]))
        tree = Expression(
            LogicalJoin(JoinKind.SEMI, cond),
            [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
        )
        stats, _ = derive(db, tree)
        assert 0 < stats.row_count <= 5000

    def test_left_join_at_least_left_rows(self, db, ctx):
        _f, t1, t2, c1, c2 = ctx
        cond = Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[1]))
        tree = Expression(
            LogicalJoin(JoinKind.LEFT, cond),
            [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
        )
        stats, _ = derive(db, tree)
        assert stats.row_count >= 5000

    def test_gbagg_groups(self, db, ctx):
        f, t1, _t2, c1, _c2 = ctx
        out = f.next("n", c1[0].dtype)
        tree = Expression(
            LogicalGbAgg([c1[2]], [(AggFunc("count", None), out)]),
            [Expression(LogicalGet(t1, c1))],
        )
        stats, _ = derive(db, tree)
        assert stats.row_count == pytest.approx(3, rel=0.5)

    def test_scalar_agg_is_one_row(self, db, ctx):
        f, t1, _t2, c1, _c2 = ctx
        out = f.next("n", c1[0].dtype)
        tree = Expression(
            LogicalGbAgg([], [(AggFunc("count", None), out)]),
            [Expression(LogicalGet(t1, c1))],
        )
        stats, _ = derive(db, tree)
        assert stats.row_count == 1

    def test_limit_caps_rows(self, db, ctx):
        _f, t1, _t2, c1, _c2 = ctx
        tree = Expression(
            LogicalLimit([(c1[0], True)], 7),
            [Expression(LogicalGet(t1, c1))],
        )
        stats, _ = derive(db, tree)
        assert stats.row_count == 7

    def test_union_sums(self, db, ctx):
        f, t1, t2, c1, c2 = ctx
        out = [f.next("u", c1[0].dtype)]
        tree = Expression(
            LogicalUnionAll(out, [[c1[0]], [c2[0]]]),
            [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
        )
        stats, _ = derive(db, tree)
        assert stats.row_count == pytest.approx(5500)

    def test_stats_cached_on_group(self, db, ctx):
        _f, t1, _t2, c1, _c2 = ctx
        stats, memo = derive(db, Expression(LogicalGet(t1, c1)))
        assert memo.root_group().stats is stats

    def test_promise_prefers_fewer_join_conditions(self, ctx):
        f, t1, t2, c1, c2 = ctx
        one = LogicalJoin(
            JoinKind.INNER, Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[0]))
        )
        two = LogicalJoin(JoinKind.INNER, None)
        from repro.memo.memo import GroupExpression

        g_one = GroupExpression(0, one, (0, 1))
        g_two = GroupExpression(
            1,
            LogicalJoin(
                JoinKind.INNER,
                Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[0])),
            ),
            (0, 1),
        )
        g_two.op.condition = None  # zero conjuncts
        assert promise(g_one) > promise(g_two)


class TestSelectivityEstimation:
    def make_stats(self, db, ctx):
        _f, t1, _t2, c1, _c2 = ctx
        stats = StatsObject(row_count=db.stats("t1").row_count)
        for i, col in enumerate(["a", "b", "c"]):
            stats.add_column(c1[i].id, db.stats("t1").column(col))
        return stats, c1

    def test_eq_vs_actual(self, db, ctx):
        stats, c1 = self.make_stats(db, ctx)
        pred = Comparison("=", ColRefExpr(c1[2]), Literal("x"))
        sel = estimate_selectivity(pred, stats)
        actual = sum(1 for _a, _b, c in db.scan("t1") if c == "x") / 5000
        assert sel == pytest.approx(actual, rel=0.2)

    def test_or_combines(self, db, ctx):
        from repro.ops.scalar import BoolExpr

        stats, c1 = self.make_stats(db, ctx)
        p1 = Comparison("<", ColRefExpr(c1[1]), Literal(10))
        p2 = Comparison(">", ColRefExpr(c1[1]), Literal(90))
        sel_or = estimate_selectivity(BoolExpr("or", [p1, p2]), stats)
        assert sel_or == pytest.approx(0.2, rel=0.4)

    def test_not_inverts(self, db, ctx):
        from repro.ops.scalar import BoolExpr

        stats, c1 = self.make_stats(db, ctx)
        pred = Comparison("<", ColRefExpr(c1[1]), Literal(50))
        sel = estimate_selectivity(pred, stats)
        inv = estimate_selectivity(BoolExpr("not", [pred]), stats)
        assert sel + inv == pytest.approx(1.0, abs=0.05)

    def test_apply_predicate_restricts_histogram(self, db, ctx):
        stats, c1 = self.make_stats(db, ctx)
        pred = Comparison("<", ColRefExpr(c1[1]), Literal(50))
        out = apply_predicate(stats, pred)
        hist = out.column(c1[1].id).histogram
        assert hist.buckets[-1].hi <= 51

    def test_sequential_conjuncts_compound(self, db, ctx):
        from repro.ops.scalar import make_conj

        stats, c1 = self.make_stats(db, ctx)
        pred = make_conj([
            Comparison(">", ColRefExpr(c1[1]), Literal(25)),
            Comparison("<", ColRefExpr(c1[1]), Literal(75)),
        ])
        out = apply_predicate(stats, pred)
        actual = sum(1 for _a, b, _c in db.scan("t1") if 25 < b < 75)
        assert out.row_count == pytest.approx(actual, rel=0.25)

    def test_unknown_column_defaults(self, db, ctx):
        stats, c1 = self.make_stats(db, ctx)
        from repro.catalog.types import INT
        from repro.ops.scalar import ColRef

        alien = ColRef(999, "alien", INT)
        pred = Comparison("=", ColRefExpr(alien), Literal(1))
        sel = estimate_selectivity(pred, stats)
        assert 0 < sel < 1


class TestCostModel:
    def params(self):
        return CostParams()

    def test_local_rows_by_distribution(self):
        assert local_rows(1600, SINGLETON, 16) == 1600
        assert local_rows(1600, REPLICATED, 16) == 1600
        assert local_rows(1600, HashedDist((1,)), 16) == 100

    def stats(self, rows, width=8):
        s = StatsObject(row_count=rows)
        s.add_column(0, ColumnStats(ndv=rows, width=width))
        return s

    def test_redistribute_cheaper_than_broadcast_for_big_inputs(self):
        model = CostModel(segments=16)
        child = self.stats(100_000)
        delivered = DerivedProps(HashedDist((0,)), ANY_ORDER)
        redist = model.local_cost(
            ph.PhysicalRedistribute([]), child, [child],
            [DerivedProps(HashedDist((0,)), ANY_ORDER)], [0.0], delivered,
        )
        bcast = model.local_cost(
            ph.PhysicalBroadcast(), child, [child],
            [DerivedProps(HashedDist((0,)), ANY_ORDER)], [0.0],
            DerivedProps(REPLICATED, ANY_ORDER),
        )
        assert bcast > redist * 3

    def test_broadcast_attractive_for_tiny_inputs(self):
        """The crossover: broadcasting 10 rows beats redistributing the
        100k-row other side."""
        model = CostModel(segments=16)
        tiny = self.stats(10)
        huge = self.stats(100_000)
        bcast_tiny = model.local_cost(
            ph.PhysicalBroadcast(), tiny, [tiny],
            [DerivedProps(HashedDist((0,)), ANY_ORDER)], [0.0],
            DerivedProps(REPLICATED, ANY_ORDER),
        )
        redist_huge = model.local_cost(
            ph.PhysicalRedistribute([]), huge, [huge],
            [DerivedProps(HashedDist((0,)), ANY_ORDER)], [0.0],
            DerivedProps(HashedDist((0,)), ANY_ORDER),
        )
        assert bcast_tiny < redist_huge

    def test_correlated_join_charges_per_row(self):
        model = CostModel(segments=16)
        outer = self.stats(10_000)
        inner = self.stats(100)
        op = ph.PhysicalCorrelatedNLJoin(
            __import__("repro.ops.logical", fromlist=["ApplyKind"]).ApplyKind.SCALAR,
            frozenset(), [],
        )
        cost = model.local_cost(
            op, outer, [outer, inner],
            [DerivedProps(HashedDist((0,)), ANY_ORDER),
             DerivedProps(REPLICATED, ANY_ORDER)],
            [100.0, 500.0],
            DerivedProps(HashedDist((0,)), ANY_ORDER),
        )
        # ~625 local outer rows, each re-running a 500-cost subplan
        assert cost > 100_000

    def test_sort_superlinear(self):
        model = CostModel(segments=1)
        small = self.stats(1_000)
        big = self.stats(100_000)
        from repro.props.order import OrderSpec, SortKey

        op = ph.PhysicalSort(OrderSpec((SortKey(0),)))
        d = DerivedProps(SINGLETON, OrderSpec((SortKey(0),)))
        cost_small = model.local_cost(
            op, small, [small], [DerivedProps(SINGLETON, ANY_ORDER)], [0.0], d
        )
        cost_big = model.local_cost(
            op, big, [big], [DerivedProps(SINGLETON, ANY_ORDER)], [0.0], d
        )
        assert cost_big > cost_small * 100

    def test_skewed_redistribute_penalized(self):
        from repro.catalog.statistics import Histogram

        model = CostModel(segments=16)
        uniform = StatsObject(row_count=10_000)
        uniform.add_column(0, ColumnStats(
            ndv=100, histogram=Histogram.from_values(list(range(100)) * 100),
        ))
        skewed = StatsObject(row_count=10_000)
        skewed.add_column(0, ColumnStats(
            ndv=100,
            histogram=Histogram.from_values([1] * 9000 + list(range(2, 1002))),
        ))
        from repro.catalog.types import INT
        from repro.ops.scalar import ColRef

        col = ColRef(0, "k", INT)
        op = ph.PhysicalRedistribute([col])
        d = DerivedProps(HashedDist((0,)), ANY_ORDER)
        child_d = [DerivedProps(HashedDist((1,)), ANY_ORDER)]
        cost_uniform = model.local_cost(op, uniform, [uniform], child_d, [0.0], d)
        cost_skewed = model.local_cost(op, skewed, [skewed], child_d, [0.0], d)
        assert cost_skewed > cost_uniform * 1.5

    def test_dynamic_scan_discounted(self):
        from repro.catalog import Column, INT, Table
        from repro.catalog.schema import PartitionScheme, RangePartition
        from repro.ops.physical import DPEHint

        t = Table(
            "f", [Column("d", INT), Column("k", INT)],
            distribution_columns=("k",),
            partitioning=PartitionScheme("d", (
                RangePartition("p0", 0, 100), RangePartition("p1", 100, 200),
            )),
        )
        from repro.ops.scalar import ColRef

        cols = [ColRef(0, "d", INT), ColRef(1, "k", INT)]
        model = CostModel(segments=16)
        stats = self.stats(100_000)
        d = DerivedProps(HashedDist((1,)), ANY_ORDER)
        plain = model.local_cost(
            ph.PhysicalTableScan(t, cols, "f"), stats, [], [], [], d
        )
        dynamic = model.local_cost(
            ph.PhysicalDynamicTableScan(
                t, cols, "f", None, DPEHint(9, 0.1)
            ),
            stats, [], [], [], d,
        )
        assert dynamic < plain * 0.2


def _optimize_corpus(db, **config):
    """``{query_id: root plan cost}`` over the corpus at 8 segments."""
    orca = Orca(db, config=OptimizerConfig(segments=8, **config))
    return {q.id: orca.optimize(q.sql).plan.cost for q in QUERIES}


@pytest.mark.pins
@pytest.mark.parametrize("pruning", [True, False], ids=["pruned", "exhaustive"])
def test_corpus_costs_are_bit_pinned(tpcds_db, monkeypatch, pruning):
    """Every root plan's cost as ``float.hex()`` -- the same with
    cost-bound pruning on and off -- and the sha1 over the call-ordered
    ``(op name, value.hex())`` of every ``local_cost`` and
    ``local_cost_floor`` call of the corpus pass.  Golden plans print
    costs to one decimal, so these are what catches a last-bit drift in
    a cost formula."""
    calls = []
    local_cost = CostModel.local_cost
    local_cost_floor = CostModel.local_cost_floor

    def record_cost(self, op, *args):
        cost = local_cost(self, op, *args)
        calls.append((op.name, cost.hex()))
        return cost

    def record_floor(self, op, *args):
        floor = local_cost_floor(self, op, *args)
        calls.append((op.name, floor.hex()))
        return floor

    monkeypatch.setattr(CostModel, "local_cost", record_cost)
    monkeypatch.setattr(CostModel, "local_cost_floor", record_floor)
    roots = _optimize_corpus(tpcds_db, enable_cost_bound_pruning=pruning)
    pins.check({
        "queries": {
            qid: {"root_cost": cost.hex()} for qid, cost in roots.items()
        },
        "corpus": {"cost_calls": {
            "pruned" if pruning else "exhaustive": {
                "calls": len(calls),
                "sha1": hashlib.sha1(json.dumps(calls).encode()).hexdigest(),
            },
        }},
    })


def _concrete_physical_ops():
    """Every ``PhysicalOp`` class in ``repro.ops.physical`` that nothing
    there subclasses."""
    classes = [
        c for c in vars(ph).values()
        if isinstance(c, type) and issubclass(c, ph.PhysicalOp)
    ]
    return {
        c for c in classes
        if not any(o is not c and issubclass(o, c) for o in classes)
    }


def test_floor_bounds_every_costed_alternative(tpcds_db, monkeypatch):
    """``local_cost_floor`` is a sound lower bound on ``local_cost`` for
    every alternative the corpus search costs, and the corpus costs every
    physical operator the search can reach.  A CTE producer is wrapped
    around its child's plan outside the Memo, so it is never costed;
    decorrelation off is what reaches the correlated nested-loop join."""
    costed = []
    local_cost = CostModel.local_cost

    def checked_cost(self, op, stats, child_stats, *rest):
        cost = local_cost(self, op, stats, child_stats, *rest)
        costed.append((op, self.local_cost_floor(op, stats, child_stats), cost))
        return cost

    monkeypatch.setattr(CostModel, "local_cost", checked_cost)
    for decorrelation in (True, False):
        before = len(costed)
        _optimize_corpus(tpcds_db, enable_decorrelation=decorrelation)
        assert len(costed) > before
    violations = [
        (op.name, floor, cost) for op, floor, cost in costed if floor > cost
    ]
    assert violations == []
    kinds = {type(op) for op, _floor, _cost in costed}
    assert kinds == _concrete_physical_ops() - {ph.PhysicalCTEProducer}
    assert len(kinds) == 21
