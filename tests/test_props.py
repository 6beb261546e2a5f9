"""Property framework tests: distribution/order satisfaction lattice."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.props import required
from repro.memo.memo import Group
from repro.props.distribution import (
    ANY_DIST,
    HashedDist,
    RANDOM,
    REPLICATED,
    SINGLETON,
)
from repro.props.order import ANY_ORDER, OrderSpec, SortKey
from repro.props.required import ANY_PROPS, DerivedProps, RequiredProps

from tests.helpers import strictness


DELIVERABLE = [SINGLETON, REPLICATED, RANDOM, HashedDist((1,)), HashedDist((1, 2))]
REQUIREMENTS = DELIVERABLE + [ANY_DIST]


class TestDistributionLattice:
    @pytest.mark.parametrize("delivered", DELIVERABLE)
    def test_everything_satisfies_any(self, delivered):
        assert delivered.satisfies(ANY_DIST)

    def test_singleton(self):
        assert SINGLETON.satisfies(SINGLETON)
        assert not SINGLETON.satisfies(HashedDist((1,)))
        assert not SINGLETON.satisfies(REPLICATED)

    def test_replicated(self):
        assert REPLICATED.satisfies(REPLICATED)
        assert not REPLICATED.satisfies(SINGLETON)

    def test_hashed_exact_columns(self):
        assert HashedDist((1,)).satisfies(HashedDist((1,)))
        assert not HashedDist((1,)).satisfies(HashedDist((2,)))
        assert not HashedDist((1, 2)).satisfies(HashedDist((2, 1)))

    def test_hashed_satisfies_random(self):
        assert HashedDist((1,)).satisfies(RANDOM)

    def test_random_does_not_satisfy_hashed(self):
        assert not RANDOM.satisfies(HashedDist((1,)))

    def test_equality_and_hash(self):
        assert HashedDist((1, 2)) == HashedDist((1, 2))
        assert hash(SINGLETON) == hash(SINGLETON)
        assert HashedDist((1,)) != HashedDist((2,))

    def test_is_partitioned(self):
        assert HashedDist((1,)).is_partitioned()
        assert RANDOM.is_partitioned()
        assert not SINGLETON.is_partitioned()
        assert not REPLICATED.is_partitioned()

    def test_hashed_on_accepts_ints_and_colrefs(self):
        from repro.catalog.types import INT
        from repro.ops.scalar import ColRef

        assert HashedDist.on([3, 4]).columns == (3, 4)
        assert HashedDist.on([ColRef(7, "x", INT)]).columns == (7,)

    def test_remapped(self):
        assert HashedDist((1, 2)).remapped({1: 9}).columns == (9, 2)

    @given(st.sampled_from(DELIVERABLE))
    @settings(max_examples=20)
    def test_satisfaction_reflexive(self, dist):
        assert dist.satisfies(dist)


class TestOrderSpec:
    def test_prefix_satisfaction(self):
        full = OrderSpec((SortKey(1), SortKey(2)))
        prefix = OrderSpec((SortKey(1),))
        assert full.satisfies(prefix)
        assert not prefix.satisfies(full)

    def test_direction_matters(self):
        asc = OrderSpec((SortKey(1, True),))
        desc = OrderSpec((SortKey(1, False),))
        assert not asc.satisfies(desc)

    def test_empty_is_any(self):
        assert OrderSpec((SortKey(1),)).satisfies(ANY_ORDER)
        assert ANY_ORDER.satisfies(ANY_ORDER)
        assert not ANY_ORDER.satisfies(OrderSpec((SortKey(1),)))

    def test_remapped(self):
        spec = OrderSpec((SortKey(1), SortKey(2, False)))
        out = spec.remapped({1: 7})
        assert out.keys == (SortKey(7), SortKey(2, False))

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
        st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=4),
    )
    @settings(max_examples=60)
    def test_satisfaction_transitive_with_prefixes(self, keys_a, keys_b):
        a = OrderSpec(tuple(SortKey(c, asc) for c, asc in keys_a))
        b = OrderSpec(tuple(SortKey(c, asc) for c, asc in keys_b))
        if a.satisfies(b):
            # any extension of a still satisfies b
            extended = OrderSpec(a.keys + (SortKey(99),))
            assert extended.satisfies(b)


class TestRequiredProps:
    def test_strictness_ranks(self):
        assert strictness(RequiredProps()) == 0
        assert strictness(RequiredProps(SINGLETON)) == 1
        assert strictness(RequiredProps(
            SINGLETON, OrderSpec((SortKey(1),))
        )) == 2

    def test_weakening_helpers(self):
        req = RequiredProps(SINGLETON, OrderSpec((SortKey(1),)))
        assert strictness(RequiredProps(req.dist)) < strictness(req)
        assert strictness(RequiredProps(order=req.order)) < strictness(req)

    def test_key_distinguishes(self):
        r1 = RequiredProps(SINGLETON)
        r2 = RequiredProps(HashedDist((1,)))
        assert r1.key() != r2.key()

    def test_equal_requests_share_an_id(self):
        a = RequiredProps(HashedDist((1, 2)), OrderSpec((SortKey(3, False),)))
        b = RequiredProps(HashedDist((1, 2)), OrderSpec((SortKey(3, False),)))
        assert a is not b and a == b
        assert a.id == b.id
        assert RequiredProps().id == RequiredProps(ANY_DIST, ANY_ORDER).id

    def test_distinct_requests_get_distinct_ids(self):
        reqs = [
            RequiredProps(dist, order)
            for dist in REQUIREMENTS
            for order in (ANY_ORDER, OrderSpec((SortKey(1),)),
                          OrderSpec((SortKey(1, False),)))
        ]
        assert len({r.id for r in reqs}) == len(reqs)

    def test_id_is_not_part_of_equality_or_repr(self):
        req = RequiredProps(SINGLETON)
        assert "id" not in repr(req)
        assert req == RequiredProps(SINGLETON)
        assert hash(req) == hash(RequiredProps(SINGLETON))

    def test_derived_props_carry_ids_too(self):
        a = DerivedProps(HashedDist((4,)), OrderSpec((SortKey(4),)))
        assert a.id == DerivedProps(HashedDist((4,)), OrderSpec((SortKey(4),))).id
        assert a.id != DerivedProps(HashedDist((4,))).id

    def test_id_is_recomputed_on_the_receiving_side(self, monkeypatch):
        """A request's id never travels: the unpickling process assigns
        its own, consistent with requests it builds itself."""
        req = RequiredProps(HashedDist((7, 8)), OrderSpec((SortKey(7),)))
        blob = pickle.dumps(req)
        # The "receiving process": an id table that has seen other
        # requests first, so the sender's number means something else.
        monkeypatch.setattr(required, "_ids", {})
        shifted = [RequiredProps(HashedDist((n,))) for n in range(req.id + 3)]
        clone = pickle.loads(blob)
        assert clone == req
        assert clone.id != req.id
        assert clone.id not in {r.id for r in shifted}
        local = RequiredProps(HashedDist((7, 8)), OrderSpec((SortKey(7),)))
        assert clone.id == local.id
        # ...and it still finds its context.
        group = Group(0, [])
        ctx = group.context(local)
        assert group.existing_context(clone) is ctx
        derived = pickle.loads(pickle.dumps(DerivedProps(HashedDist((7, 8)))))
        assert derived.id == DerivedProps(HashedDist((7, 8))).id

    def test_full_id_table_falls_back_to_structural_ids(self, monkeypatch):
        monkeypatch.setattr(required, "_ids", {})
        monkeypatch.setattr(required, "MAX_INTERNED_IDS", 2)
        first, second = RequiredProps(HashedDist((1,))), RequiredProps(SINGLETON)
        overflow = RequiredProps(HashedDist((2,)))
        again = RequiredProps(HashedDist((2,)))
        other = RequiredProps(HashedDist((3,)))
        assert len(required._ids) == 2
        assert isinstance(first.id, int) and isinstance(second.id, int)
        # Past the cap the structural key stands in: still equal for
        # equal requests, distinct otherwise, never equal to an int id.
        assert overflow.id == again.id == overflow.key()
        assert overflow.id != other.id
        assert overflow.id not in (first.id, second.id)
        assert RequiredProps(HashedDist((1,))).id == first.id
        group = Group(0, [])
        assert group.context(overflow) is group.existing_context(again)
        assert group.existing_context(other) is None

    def test_derived_satisfies(self):
        d = DerivedProps(HashedDist((1,)), OrderSpec((SortKey(1), SortKey(2))))
        assert d.satisfies(RequiredProps(ANY_DIST, OrderSpec((SortKey(1),))))
        assert d.satisfies(RequiredProps(HashedDist((1,))))
        assert not d.satisfies(RequiredProps(SINGLETON))

    def test_is_any(self):
        assert RequiredProps() == ANY_PROPS
        assert RequiredProps(SINGLETON) != ANY_PROPS
