"""Sort-merge join tests: property negotiation, execution, plan choice."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.catalog.types import INT
from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.executor import _merge_join_segment
from repro.ops.logical import JoinKind
from repro.ops.physical import PhysicalMergeJoin
from repro.ops.scalar import ColumnFactory
from repro.optimizer import Orca
from repro.props.distribution import HashedDist, SINGLETON
from repro.props.order import ANY_ORDER, OrderSpec, SortKey
from repro.props.required import DerivedProps, RequiredProps

from tests.conftest import make_small_db, rows_equal


@pytest.fixture()
def op_and_cols():
    f = ColumnFactory()
    a, b = f.next("a", INT), f.next("b", INT)
    c, d = f.next("c", INT), f.next("d", INT)
    return PhysicalMergeJoin(JoinKind.INNER, [a], [c]), a, b, c, d


class TestProperties:
    def test_requires_key_order_on_children(self, op_and_cols):
        op, a, _b, c, _d = op_and_cols
        alts = op.child_request_alternatives(RequiredProps())
        for alt in alts:
            assert alt[0].order == OrderSpec((SortKey(a.id),))
            assert alt[1].order == OrderSpec((SortKey(c.id),))

    def test_serves_ordered_request_on_keys(self, op_and_cols):
        op, a, *_ = op_and_cols
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(a.id),)))
        assert op.child_request_alternatives(req)

    def test_rejects_foreign_order_request(self, op_and_cols):
        op, _a, b, *_ = op_and_cols
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(b.id),)))
        assert op.child_request_alternatives(req) == ()

    def test_delivers_outer_order(self, op_and_cols):
        op, a, _b, c, _d = op_and_cols
        left = DerivedProps(SINGLETON, OrderSpec((SortKey(a.id),)))
        right = DerivedProps(SINGLETON, OrderSpec((SortKey(c.id),)))
        out = op.derive_delivered([left, right])
        assert out.order == OrderSpec((SortKey(a.id),))
        assert out.dist == SINGLETON

    def test_rejects_unsorted_children(self, op_and_cols):
        op, *_ = op_and_cols
        left = DerivedProps(SINGLETON, ANY_ORDER)
        right = DerivedProps(SINGLETON, ANY_ORDER)
        assert op.derive_delivered([left, right]) is None

    def test_colocated_delivery(self, op_and_cols):
        op, a, _b, c, _d = op_and_cols
        left = DerivedProps(HashedDist((a.id,)), OrderSpec((SortKey(a.id),)))
        right = DerivedProps(HashedDist((c.id,)), OrderSpec((SortKey(c.id),)))
        out = op.derive_delivered([left, right])
        assert out.dist == HashedDist((a.id,))


class TestMergeAlgorithm:
    def merge(self, left_rows, right_rows, kind=JoinKind.INNER):
        f = ColumnFactory()
        a, c = f.next("a", INT), f.next("c", INT)
        op = PhysicalMergeJoin(kind, [a], [c])
        index = {a.id: 0, c.id: 1}
        def env_fn(idx, row):
            return {cid: row[pos] for cid, pos in idx.items()}

        return _merge_join_segment(
            left_rows, right_rows, [0], [0], op, (None,), index, env_fn
        )

    def test_basic_inner(self):
        out = self.merge([(1,), (2,), (3,)], [(2,), (3,), (4,)])
        assert out == [(2, 2), (3, 3)]

    def test_duplicates_cross_product(self):
        out = self.merge([(1,), (1,)], [(1,), (1,), (1,)])
        assert len(out) == 6

    def test_null_keys_never_match(self):
        out = self.merge([(None,), (1,)], [(None,), (1,)])
        assert out == [(1, 1)]

    def test_left_join_pads(self):
        out = self.merge([(1,), (5,)], [(1,)], kind=JoinKind.LEFT)
        assert (5, None) in out
        assert (1, 1) in out

    def test_left_join_null_key_padded(self):
        out = self.merge([(None,)], [(1,)], kind=JoinKind.LEFT)
        assert out == [(None, None)]

    def test_unsorted_inputs_tolerated(self):
        out = self.merge([(3,), (1,), (2,)], [(2,), (1,)])
        assert sorted(out) == [(1, 1), (2, 2)]


class TestPlansAndExecution:
    def test_merge_join_chosen_when_order_required(self):
        """An ordered query over index-sorted inputs should prefer the
        order-preserving merge join at least sometimes; assert it exists
        in the search space and produces correct results when forced."""
        db = make_small_db()
        config = OptimizerConfig(segments=8).with_disabled(
            "InnerJoin2HashJoin", "InnerJoin2NLJoin"
        )
        orca = Orca(db, config=config)
        sql = "SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a ORDER BY t1.a"
        result = orca.optimize(sql)
        assert any(
            node.op.name == "MergeJoin" for node in result.plan.walk()
        )
        out = Executor(Cluster(db, segments=8)).execute(
            result.plan, result.output_cols
        )
        t2_by_a = defaultdict(list)
        for a2, b2 in db.scan("t2"):
            t2_by_a[a2].append(b2)
        expected = [
            (a1, b2)
            for a1, _b1, _c1 in db.scan("t1")
            for b2 in t2_by_a.get(a1, [])
        ]
        assert rows_equal(out.rows, expected)
        assert [r[0] for r in out.rows] == sorted(r[0] for r in out.rows)

    def test_merge_join_in_search_space(self):
        """Even with all join implementations enabled, the merge join is
        a costed member of the search space (TAQO can sample it)."""
        db = make_small_db()
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.a ORDER BY t1.a"
        )
        merge_exprs = [
            g for g in result.memo.all_gexprs()
            if g.op.name == "MergeJoin" and g.plans
        ]
        assert merge_exprs

    def test_merge_equals_hash_results(self):
        db = make_small_db()
        sql = (
            "SELECT t1.a, t2.b FROM t1, t2 "
            "WHERE t1.a = t2.b AND t1.b < 20 ORDER BY t1.a, t2.b"
        )
        hash_cfg = OptimizerConfig(segments=8).with_disabled(
            "InnerJoin2MergeJoin"
        )
        merge_cfg = OptimizerConfig(segments=8).with_disabled(
            "InnerJoin2HashJoin", "InnerJoin2NLJoin"
        )
        cluster = Cluster(db, segments=8)
        r1 = Orca(db, config=hash_cfg).optimize(sql)
        r2 = Orca(db, config=merge_cfg).optimize(sql)
        assert any(n.op.name == "MergeJoin" for n in r2.plan.walk())
        out1 = Executor(cluster).execute(r1.plan, r1.output_cols)
        out2 = Executor(cluster).execute(r2.plan, r2.output_cols)
        assert out1.rows == out2.rows

    def test_left_merge_join_end_to_end(self):
        db = make_small_db()
        sql = (
            "SELECT t1.a, t2.b FROM t1 LEFT JOIN t2 ON t1.a = t2.a "
            "WHERE t1.b = 3 ORDER BY t1.a"
        )
        merge_cfg = OptimizerConfig(segments=8).with_disabled(
            "InnerJoin2HashJoin", "InnerJoin2NLJoin"
        )
        r = Orca(db, config=merge_cfg).optimize(sql)
        assert any(n.op.name == "MergeJoin" for n in r.plan.walk())
        out = Executor(Cluster(db, segments=8)).execute(r.plan, r.output_cols)
        hash_r = Orca(db, config=OptimizerConfig(segments=8).with_disabled(
            "InnerJoin2MergeJoin"
        )).optimize(sql)
        out_ref = Executor(Cluster(db, segments=8)).execute(
            hash_r.plan, hash_r.output_cols
        )
        assert rows_equal(out.rows, out_ref.rows)
