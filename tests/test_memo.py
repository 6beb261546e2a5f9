"""Memo tests: copy-in, duplicate detection, group merging, enforcers."""

from __future__ import annotations

import pytest

from repro.catalog import Column, INT, Table
from repro.memo import Memo, group_ref
from repro.ops import Expression
from repro.ops.logical import JoinKind, LogicalGet, LogicalJoin, LogicalSelect
from repro.ops.physical import PhysicalGather, PhysicalSort
from repro.ops.scalar import ColRefExpr, ColumnFactory, Comparison, Literal
from repro.props.distribution import ANY_DIST, SINGLETON
from repro.props.order import OrderSpec, SortKey
from repro.props.required import RequiredProps


@pytest.fixture()
def setup():
    f = ColumnFactory()
    t1 = Table("t1", [Column("a", INT), Column("b", INT)])
    t2 = Table("t2", [Column("a", INT), Column("b", INT)])
    c1 = [f.next("t1.a", INT), f.next("t1.b", INT)]
    c2 = [f.next("t2.a", INT), f.next("t2.b", INT)]
    return f, t1, t2, c1, c2


def join_tree(t1, t2, c1, c2):
    cond = Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[1]))
    return Expression(
        LogicalJoin(JoinKind.INNER, cond),
        [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
    )


class TestCopyIn:
    def test_initial_memo_matches_figure_4(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        memo.set_root(memo.insert(join_tree(t1, t2, c1, c2)))
        # Figure 4: three groups (two Gets + the join), one gexpr each.
        assert memo.num_groups() == 3
        assert memo.num_gexprs() == 3
        root = memo.root_group()
        assert isinstance(root.gexprs[0].op, LogicalJoin)

    def test_duplicate_detection(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        gid1 = memo.insert(join_tree(t1, t2, c1, c2))
        gid2 = memo.insert(join_tree(t1, t2, c1, c2))
        assert memo.find(gid1) == memo.find(gid2)
        assert memo.num_gexprs() == 3

    def test_shared_subtrees_share_groups(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        memo.insert(Expression(LogicalGet(t1, c1)))
        memo.insert(join_tree(t1, t2, c1, c2))
        # The Get(t1) group is reused, not duplicated.
        assert memo.num_groups() == 3

    def test_distinct_aliases_get_distinct_groups(self, setup):
        f, t1, _t2, c1, _c2 = setup
        memo = Memo()
        other_cols = [f.next("o.a", INT), f.next("o.b", INT)]
        memo.insert(Expression(LogicalGet(t1, c1)))
        memo.insert(Expression(LogicalGet(t1, other_cols)))
        assert memo.num_groups() == 2

    def test_output_columns_recorded(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        memo.set_root(memo.insert(join_tree(t1, t2, c1, c2)))
        assert [c.id for c in memo.root_group().output_cols] == [
            c1[0].id, c1[1].id, c2[0].id, c2[1].id
        ]

    def test_group_ref_insert(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        get_gid = memo.insert(Expression(LogicalGet(t1, c1)))
        # Insert a Select over an existing group via GroupRef.
        pred = Comparison(">", ColRefExpr(c1[1]), Literal(5))
        sel_gid = memo.insert(
            Expression(LogicalSelect(pred), [group_ref(memo, get_gid)])
        )
        assert memo.group(sel_gid).gexprs[0].child_groups == (get_gid,)


class TestCommutedInsert:
    def test_commuted_join_lands_in_same_group(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        gid = memo.insert(join_tree(t1, t2, c1, c2))
        group = memo.group(gid)
        cond = group.gexprs[0].op.condition
        commuted = Expression(
            LogicalJoin(JoinKind.INNER, cond),
            [group_ref(memo, group.gexprs[0].child_groups[1]),
             group_ref(memo, group.gexprs[0].child_groups[0])],
        )
        memo.insert(commuted, target_group=gid)
        assert len(memo.group(gid).gexprs) == 2
        # Re-inserting is deduplicated by expression topology.
        memo.insert(commuted, target_group=gid)
        assert len(memo.group(gid).gexprs) == 2


class TestGroupMerging:
    def test_merge_unifies_groups(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        g1 = memo.insert(Expression(LogicalGet(t1, c1)))
        g2 = memo.insert(Expression(LogicalGet(t2, c2)))
        assert memo.num_groups() == 2
        winner = memo.merge(g1, g2)
        assert memo.find(g1) == memo.find(g2) == winner
        assert memo.num_groups() == 1
        assert len(memo.group(g1).gexprs) == 2

    def test_merge_triggered_by_duplicate_in_other_group(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        gid = memo.insert(join_tree(t1, t2, c1, c2))
        g_t1 = memo.group(gid).gexprs[0].child_groups[0]
        # A rule "proves" the join group equals the t1 group by inserting
        # Get(t1) into the join group: the two groups merge.
        memo.insert(
            Expression(LogicalGet(t1, c1)), target_group=gid
        )
        assert memo.find(gid) == memo.find(g_t1)

    def test_merge_is_idempotent(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        g1 = memo.insert(Expression(LogicalGet(t1, c1)))
        g2 = memo.insert(Expression(LogicalGet(t2, c2)))
        memo.merge(g1, g2)
        before = memo.num_gexprs()
        memo.merge(g1, g2)
        assert memo.num_gexprs() == before

    def test_root_follows_merge(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        g1 = memo.insert(Expression(LogicalGet(t1, c1)))
        g2 = memo.insert(Expression(LogicalGet(t2, c2)))
        memo.set_root(g2)
        memo.merge(g1, g2)
        assert memo.root == memo.find(g1)

    def test_context_only_the_loser_has_moves_reopened(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        g1 = memo.insert(Expression(LogicalGet(t1, c1)))
        g2 = memo.insert(Expression(LogicalGet(t2, c2)))
        req = RequiredProps(SINGLETON)
        lctx = memo.group(g2).context(req)
        lctx.consider(7, 5.0)
        lctx.finish()
        winner = memo.merge(g1, g2)
        assert winner == g1
        ctx = memo.group(winner).existing_context(req)
        # Reopened, so the winner's expressions get searched too; the
        # incumbent is a real plan cost and keeps seeding pruning.
        assert not ctx.done
        assert ctx.generation == 1
        assert (ctx.best_cost, ctx.best_gexpr_id) == (5.0, 7)

    @pytest.mark.parametrize("cheaper", ["winner", "loser"])
    def test_merged_context_keeps_the_cheaper_incumbent(self, setup, cheaper):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        g1 = memo.insert(Expression(LogicalGet(t1, c1)))
        g2 = memo.insert(Expression(LogicalGet(t2, c2)))
        req = RequiredProps(ANY_DIST)
        costs = {"winner": (3.0, 30.0), "loser": (30.0, 3.0)}[cheaper]
        for (gid, gexpr_id), cost in zip(((g1, 1), (g2, 2)), costs):
            memo.group(gid).context(req).consider(gexpr_id, cost)
        winner = memo.merge(g1, g2)
        ctx = memo.group(winner).existing_context(req)
        expected = (3.0, 1) if cheaper == "winner" else (3.0, 2)
        assert (ctx.best_cost, ctx.best_gexpr_id) == expected


class TestEnforcers:
    def test_enforcer_added_once(self, setup):
        _f, t1, _t2, c1, _c2 = setup
        memo = Memo()
        gid = memo.insert(Expression(LogicalGet(t1, c1)))
        sort = PhysicalSort(OrderSpec((SortKey(c1[0].id),)))
        first = memo.insert_enforcer(gid, sort)
        assert first is not None
        again = memo.insert_enforcer(gid, PhysicalSort(OrderSpec((SortKey(c1[0].id),))))
        assert again is first
        assert len(memo.group(gid).gexprs) == 2

    def test_enforcer_self_reference(self, setup):
        _f, t1, _t2, c1, _c2 = setup
        memo = Memo()
        gid = memo.insert(Expression(LogicalGet(t1, c1)))
        gather = memo.insert_enforcer(gid, PhysicalGather())
        assert gather.child_groups == (memo.find(gid),)

    def test_different_sort_orders_coexist(self, setup):
        _f, t1, _t2, c1, _c2 = setup
        memo = Memo()
        gid = memo.insert(Expression(LogicalGet(t1, c1)))
        memo.insert_enforcer(gid, PhysicalSort(OrderSpec((SortKey(c1[0].id),))))
        memo.insert_enforcer(gid, PhysicalSort(OrderSpec((SortKey(c1[1].id),))))
        assert len(memo.group(gid).gexprs) == 3


class TestIntrospection:
    def test_dump_contains_groups(self, setup):
        _f, t1, t2, c1, c2 = setup
        memo = Memo()
        memo.set_root(memo.insert(join_tree(t1, t2, c1, c2)))
        dump = memo.dump()
        assert "GROUP" in dump and "(root)" in dump

    def test_gexpr_lookup_by_id(self, setup):
        _f, t1, _t2, c1, _c2 = setup
        memo = Memo()
        gid = memo.insert(Expression(LogicalGet(t1, c1)))
        gexpr = memo.group(gid).gexprs[0]
        assert memo.gexpr(gexpr.id) is gexpr

    def test_root_required(self):
        from repro.errors import OptimizerError

        with pytest.raises(OptimizerError):
            Memo().root_group()
