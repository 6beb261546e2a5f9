"""Physical operator property negotiation tests.

Verifies the child-request alternatives and delivered-property derivation
that drive the enforcement framework of Section 4.1 / Figure 7.
"""

from __future__ import annotations

import pytest

from repro.catalog import Column, DistributionPolicy, INT, Table
from repro.ops import physical as ph
from repro.ops.logical import AggStage, JoinKind
from repro.ops.scalar import AggFunc, ColRefExpr, ColumnFactory, Comparison
from repro.props.distribution import (
    ANY_DIST,
    HashedDist,
    RANDOM,
    REPLICATED,
    SINGLETON,
)
from repro.props.order import ANY_ORDER, OrderSpec, SortKey
from repro.props.required import DerivedProps, RequiredProps


@pytest.fixture()
def cols():
    f = ColumnFactory()
    return f, [f.next(n, INT) for n in ("a", "b", "c", "d")]


def hashed(*refs):
    return DerivedProps(HashedDist.on(refs), ANY_ORDER)


class TestScanDelivery:
    def test_hash_table_scan(self, cols):
        _f, (a, b, *_rest) = cols
        t = Table("t", [Column("a", INT), Column("b", INT)],
                  distribution_columns=("a",))
        scan = ph.PhysicalTableScan(t, [a, b], "t")
        assert scan.derive_delivered([]).dist == HashedDist((a.id,))

    def test_replicated_table_scan(self, cols):
        _f, (a, *_rest) = cols
        t = Table("t", [Column("a", INT)],
                  distribution=DistributionPolicy.REPLICATED)
        scan = ph.PhysicalTableScan(t, [a], "t")
        assert scan.derive_delivered([]).dist == REPLICATED

    def test_random_table_scan(self, cols):
        _f, (a, *_rest) = cols
        t = Table("t", [Column("a", INT)],
                  distribution=DistributionPolicy.RANDOM)
        scan = ph.PhysicalTableScan(t, [a], "t")
        assert scan.derive_delivered([]).dist == RANDOM

    def test_index_scan_delivers_order(self, cols):
        _f, (a, b, *_rest) = cols
        from repro.catalog.schema import Index

        t = Table("t", [Column("a", INT), Column("b", INT)],
                  indexes=[Index("i", "b")], distribution_columns=("a",))
        scan = ph.PhysicalIndexScan(t, [a, b], "t", t.indexes[0], b)
        delivered = scan.derive_delivered([])
        assert delivered.order.keys == (SortKey(b.id),)


class TestFilterProject:
    def test_filter_passes_request_through(self, cols):
        _f, (a, *_rest) = cols
        op = ph.PhysicalFilter(Comparison("=", ColRefExpr(a), ColRefExpr(a)))
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(a.id),)))
        assert op.child_request_alternatives(req) == ((req,),)

    def test_project_strips_computed_requirements(self, cols):
        f, (a, b, *_rest) = cols
        computed = f.next("x", INT)
        op = ph.PhysicalProject([(ColRefExpr(a), computed)])
        req = RequiredProps(
            HashedDist((computed.id,)), OrderSpec((SortKey(computed.id),))
        )
        (child_req,) = op.child_request_alternatives(req)[0]
        assert child_req.dist is ANY_DIST
        assert child_req.order.is_empty()

    def test_project_passes_noncomputed_requirements(self, cols):
        f, (a, b, *_rest) = cols
        computed = f.next("x", INT)
        op = ph.PhysicalProject([(ColRefExpr(a), computed)])
        req = RequiredProps(HashedDist((b.id,)), OrderSpec((SortKey(b.id),)))
        (child_req,) = op.child_request_alternatives(req)[0]
        assert child_req == req


class TestHashJoin:
    def make(self, cols, kind=JoinKind.INNER):
        _f, (a, b, c, d) = cols
        return ph.PhysicalHashJoin(kind, [a], [c]), a, b, c, d

    def test_rejects_ordered_requests(self, cols):
        op, a, *_ = self.make(cols)
        req = RequiredProps(ANY_DIST, OrderSpec((SortKey(a.id),)))
        assert op.child_request_alternatives(req) == ()

    def test_alternatives_include_colocated_broadcast_gather(self, cols):
        op, a, _b, c, _d = self.make(cols)
        alts = op.child_request_alternatives(RequiredProps())
        assert (RequiredProps(HashedDist((a.id,))),
                RequiredProps(HashedDist((c.id,)))) in alts
        assert (RequiredProps(ANY_DIST), RequiredProps(REPLICATED)) in alts
        assert (RequiredProps(SINGLETON), RequiredProps(SINGLETON)) in alts

    def test_colocated_delivery(self, cols):
        op, a, _b, c, _d = self.make(cols)
        out = op.derive_delivered([hashed(a), hashed(c)])
        assert out.dist == HashedDist((a.id,))

    def test_misaligned_hashed_invalid(self, cols):
        op, a, b, c, _d = self.make(cols)
        assert op.derive_delivered([hashed(b), hashed(c)]) is None

    def test_broadcast_inner_delivery(self, cols):
        op, a, *_ = self.make(cols)
        out = op.derive_delivered(
            [hashed(a), DerivedProps(REPLICATED, ANY_ORDER)]
        )
        assert out.dist == HashedDist((a.id,))

    def test_singleton_pair(self, cols):
        op, *_ = self.make(cols)
        out = op.derive_delivered(
            [DerivedProps(SINGLETON, ANY_ORDER), DerivedProps(SINGLETON, ANY_ORDER)]
        )
        assert out.dist == SINGLETON

    def test_singleton_outer_partitioned_inner_invalid(self, cols):
        op, _a, _b, c, _d = self.make(cols)
        out = op.derive_delivered(
            [DerivedProps(SINGLETON, ANY_ORDER), hashed(c)]
        )
        assert out is None

    def test_replicated_outer_only_for_inner_join(self, cols):
        op_inner, _a, _b, c, _d = self.make(cols, JoinKind.INNER)
        op_left, *_ = self.make(cols, JoinKind.LEFT)
        rep = DerivedProps(REPLICATED, ANY_ORDER)
        assert op_inner.derive_delivered([rep, hashed(c)]) is not None
        assert op_left.derive_delivered([rep, hashed(c)]) is None

    def test_semi_join_output_is_left(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalHashJoin(JoinKind.SEMI, [a], [c])
        out = op.derive_output_columns([[a, b], [c, d]])
        assert out == [a, b]

    def test_multi_key_prefix_alternative(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalHashJoin(JoinKind.INNER, [a, b], [c, d])
        alts = op.child_request_alternatives(RequiredProps())
        assert (RequiredProps(HashedDist((a.id,))),
                RequiredProps(HashedDist((c.id,)))) in alts


class TestNLJoin:
    def test_preserves_outer_order(self, cols):
        _f, (a, _b, _c, _d) = cols
        op = ph.PhysicalNLJoin(JoinKind.INNER, None)
        order = OrderSpec((SortKey(a.id),))
        out = op.derive_delivered([
            DerivedProps(SINGLETON, order), DerivedProps(SINGLETON, ANY_ORDER),
        ])
        assert out.order == order

    def test_passes_order_requirement_to_outer(self, cols):
        _f, (a, *_rest) = cols
        op = ph.PhysicalNLJoin(JoinKind.INNER, None)
        req = RequiredProps(ANY_DIST, OrderSpec((SortKey(a.id),)))
        alts = op.child_request_alternatives(req)
        assert all(alt[0].order == req.order for alt in alts)


class TestAggregation:
    def make_agg(self, cols, stage=AggStage.GLOBAL, grouped=True, stream=False):
        f, (a, b, *_rest) = cols
        out = f.next("agg", INT)
        groups = [a] if grouped else []
        cls = ph.PhysicalStreamAgg if stream else ph.PhysicalHashAgg
        return cls(groups, [(AggFunc("count", None), out)], stage), a, b

    def test_scalar_agg_requires_singleton(self, cols):
        op, *_ = self.make_agg(cols, grouped=False)
        alts = op.child_request_alternatives(RequiredProps())
        assert alts == ((RequiredProps(SINGLETON),),)

    def test_grouped_agg_alternatives(self, cols):
        op, a, _b = self.make_agg(cols)
        alts = op.child_request_alternatives(RequiredProps())
        assert (RequiredProps(HashedDist((a.id,))),) in alts
        assert (RequiredProps(SINGLETON),) in alts

    def test_partial_stage_accepts_any(self, cols):
        op, *_ = self.make_agg(cols, stage=AggStage.PARTIAL)
        alts = op.child_request_alternatives(RequiredProps())
        assert alts == ((RequiredProps(ANY_DIST),),)

    def test_global_agg_rejects_random_child(self, cols):
        op, *_ = self.make_agg(cols)
        assert op.derive_delivered([DerivedProps(RANDOM, ANY_ORDER)]) is None

    def test_global_agg_accepts_subset_hashed(self, cols):
        op, a, _b = self.make_agg(cols)
        out = op.derive_delivered([hashed(a)])
        assert out is not None

    def test_hash_agg_rejects_order_request(self, cols):
        op, a, _b = self.make_agg(cols)
        req = RequiredProps(ANY_DIST, OrderSpec((SortKey(a.id),)))
        assert op.child_request_alternatives(req) == ()

    def test_stream_agg_requires_and_delivers_order(self, cols):
        op, a, _b = self.make_agg(cols, stream=True)
        alts = op.child_request_alternatives(RequiredProps())
        assert all(
            alt[0].order == OrderSpec((SortKey(a.id),)) for alt in alts
        )
        delivered = op.derive_delivered([
            DerivedProps(SINGLETON, OrderSpec((SortKey(a.id),)))
        ])
        assert delivered.order == OrderSpec((SortKey(a.id),))

    def test_stream_agg_rejects_unsorted_child(self, cols):
        op, *_ = self.make_agg(cols, stream=True)
        assert op.derive_delivered([DerivedProps(SINGLETON, ANY_ORDER)]) is None


class TestEnforcers:
    def test_sort_serves_order(self, cols):
        _f, (a, *_rest) = cols
        sort = ph.PhysicalSort(OrderSpec((SortKey(a.id),)))
        assert sort.serves(RequiredProps(ANY_DIST, OrderSpec((SortKey(a.id),))))
        assert not sort.serves(RequiredProps(SINGLETON))

    def test_sort_child_request_strictly_weaker(self, cols):
        _f, (a, *_rest) = cols
        sort = ph.PhysicalSort(OrderSpec((SortKey(a.id),)))
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(a.id),)))
        child = sort.child_request(req)
        assert child.strictness() < req.strictness()
        assert child.dist == SINGLETON

    def test_gather_serves_unordered_singleton_only(self):
        gather = ph.PhysicalGather()
        assert gather.serves(RequiredProps(SINGLETON))
        assert not gather.serves(
            RequiredProps(SINGLETON, OrderSpec((SortKey(1),)))
        )

    def test_gather_merge_preserves_order(self, cols):
        _f, (a, *_rest) = cols
        order = OrderSpec((SortKey(a.id),))
        gm = ph.PhysicalGatherMerge(order)
        req = RequiredProps(SINGLETON, order)
        assert gm.serves(req)
        child = gm.child_request(req)
        assert child.order == order and child.dist is ANY_DIST
        assert child.strictness() < req.strictness()

    def test_redistribute_exact_columns(self, cols):
        _f, (a, b, *_rest) = cols
        redist = ph.PhysicalRedistribute([a])
        assert redist.serves(RequiredProps(HashedDist((a.id,))))
        assert not redist.serves(RequiredProps(HashedDist((b.id,))))
        assert redist.derive_delivered(
            [DerivedProps(RANDOM, ANY_ORDER)]
        ).dist == HashedDist((a.id,))

    def test_broadcast(self):
        bc = ph.PhysicalBroadcast()
        assert bc.serves(RequiredProps(REPLICATED))
        assert bc.derive_delivered(
            [DerivedProps(SINGLETON, ANY_ORDER)]
        ).dist == REPLICATED

    @pytest.mark.parametrize("enforcer_factory", [
        lambda: ph.PhysicalGather(),
        lambda: ph.PhysicalBroadcast(),
        lambda: ph.PhysicalRedistribute([]),
        lambda: ph.PhysicalSort(OrderSpec((SortKey(0),))),
        lambda: ph.PhysicalGatherMerge(OrderSpec((SortKey(0),))),
    ])
    def test_all_enforcers_weaken_strictly(self, enforcer_factory):
        """Termination of enforcer recursion (well-founded requests)."""
        enforcer = enforcer_factory()
        candidates = [
            RequiredProps(SINGLETON),
            RequiredProps(REPLICATED),
            RequiredProps(HashedDist((0,))),
            RequiredProps(SINGLETON, OrderSpec((SortKey(0),))),
            RequiredProps(ANY_DIST, OrderSpec((SortKey(0),))),
        ]
        for req in candidates:
            if enforcer.serves(req):
                assert enforcer.child_request(req).strictness() < req.strictness()


class TestAppend:
    def test_aligned_hashed_delivery(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalAppend([a, b], [[a, b], [c, d]])
        out = op.derive_delivered([hashed(a), hashed(c)])
        assert out.dist == HashedDist((a.id,))

    def test_mixed_positions_fall_back_to_random(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalAppend([a, b], [[a, b], [c, d]])
        out = op.derive_delivered([hashed(a), hashed(d)])
        assert out.dist == RANDOM

    def test_all_singleton(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalAppend([a, b], [[a, b], [c, d]])
        s = DerivedProps(SINGLETON, ANY_ORDER)
        assert op.derive_delivered([s, s]).dist == SINGLETON

    def test_hashed_request_maps_to_children(self, cols):
        _f, (a, b, c, d) = cols
        op = ph.PhysicalAppend([a, b], [[a, b], [c, d]])
        req = RequiredProps(HashedDist((a.id,)))
        alt = op.child_request_alternatives(req)[0]
        assert alt[0].dist == HashedDist((a.id,))
        assert alt[1].dist == HashedDist((c.id,))


class TestLimitAndWindow:
    def test_limit_requires_sorted_singleton(self, cols):
        _f, (a, *_rest) = cols
        op = ph.PhysicalLimit([(a, True)], 10)
        (child,) = op.child_request_alternatives(RequiredProps(SINGLETON))[0]
        assert child.dist == SINGLETON
        assert child.order == OrderSpec((SortKey(a.id),))

    def test_limit_rejects_conflicting_order(self, cols):
        _f, (a, b, *_rest) = cols
        op = ph.PhysicalLimit([(a, True)], 10)
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(b.id),)))
        assert op.child_request_alternatives(req) == ()

    def test_window_partition_requirements(self, cols):
        f, (a, b, *_rest) = cols
        from repro.ops.scalar import WindowFunc

        out = f.next("w", INT)
        win = ph.PhysicalWindow([
            (WindowFunc("rank", None, [a], [(b, True)]), out)
        ])
        (child,) = win.child_request_alternatives(RequiredProps())[0]
        assert child.dist == HashedDist((a.id,))
        assert child.order == OrderSpec((SortKey(a.id), SortKey(b.id)))

    def test_window_no_partition_needs_singleton(self, cols):
        f, (a, *_rest) = cols
        from repro.ops.scalar import WindowFunc

        out = f.next("w", INT)
        win = ph.PhysicalWindow([(WindowFunc("row_number", None, [], [(a, True)]), out)])
        (child,) = win.child_request_alternatives(RequiredProps())[0]
        assert child.dist == SINGLETON
