"""Histogram and column statistics tests, including property-based ones."""

from __future__ import annotations

import math
from datetime import date
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.statistics import Bucket, ColumnStats, Histogram, axis_value


class TestAxisValue:
    def test_ints_identity(self):
        assert axis_value(42) == 42.0

    def test_floats_identity(self):
        assert axis_value(2.5) == 2.5

    def test_bools(self):
        assert axis_value(True) == 1.0
        assert axis_value(False) == 0.0

    def test_dates_are_monotonic(self):
        assert axis_value(date(2000, 1, 2)) > axis_value(date(2000, 1, 1))

    def test_strings_preserve_order(self):
        assert axis_value("apple") < axis_value("banana")

    def test_none_is_nan(self):
        assert math.isnan(axis_value(None))

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=8,
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_string_embedding_monotone(self, values):
        # The embedding is order-preserving for printable ASCII (the
        # character range realistic workloads use); code points above 255
        # clamp and may tie.
        values = sorted(set(values))
        embedded = [axis_value(v) for v in values]
        assert embedded == sorted(embedded)


class TestHistogramConstruction:
    def test_empty_values(self):
        h = Histogram.from_values([])
        assert h.total_rows() == 0
        assert h.buckets == ()

    def test_all_nulls(self):
        h = Histogram.from_values([None, None, None])
        assert h.null_rows == 3
        assert h.non_null_rows() == 0

    def test_total_rows_preserved(self):
        h = Histogram.from_values(list(range(100)))
        assert h.total_rows() == pytest.approx(100)

    def test_ndv_roughly_right(self):
        h = Histogram.from_values([1, 1, 2, 2, 3, 3] * 10)
        assert 2.0 <= h.ndv() <= 4.0

    def test_min_max(self):
        h = Histogram.from_values(list(range(10, 110)))
        assert h.buckets[0].lo == 10
        assert h.buckets[-1].hi >= 109

    def test_uniform_factory(self):
        h = Histogram.uniform(0, 100, rows=1000, ndv=100)
        assert h.total_rows() == pytest.approx(1000)

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1,
                 max_size=300)
    )
    @settings(max_examples=60)
    def test_rows_conserved_property(self, values):
        h = Histogram.from_values(values)
        assert h.total_rows() == pytest.approx(len(values))

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                 max_size=300)
    )
    @settings(max_examples=60)
    def test_buckets_ordered_property(self, values):
        h = Histogram.from_values(values)
        for a, b in zip(h.buckets, h.buckets[1:]):
            assert a.lo <= a.hi <= b.lo <= b.hi


class TestSelectivity:
    def test_eq_uniform(self):
        h = Histogram.from_values(list(range(100)))
        assert h.select_eq(50) == pytest.approx(0.01, rel=0.5)

    def test_eq_heavy_duplicates_spanning_buckets(self):
        # A value that fills many equi-depth buckets must sum them all.
        years = [1998] * 365 + [1999] * 365 + [2000] * 366
        h = Histogram.from_values(years)
        assert h.select_eq(1998) == pytest.approx(365 / 1096, rel=0.1)

    def test_eq_string_values(self):
        h = Histogram.from_values(["a", "b", "a", "c", "a"])
        assert h.select_eq("a") == pytest.approx(0.6, rel=0.2)

    def test_eq_absent_value(self):
        h = Histogram.from_values([1, 2, 3])
        assert h.select_eq(99) == 0.0

    def test_range_half(self):
        h = Histogram.from_values(list(range(100)))
        sel = h.select_range(lo=None, hi=50)
        assert sel == pytest.approx(0.5, rel=0.15)

    def test_range_all(self):
        h = Histogram.from_values(list(range(100)))
        assert h.select_range() == pytest.approx(1.0, rel=0.05)

    def test_range_inclusive_bounds(self):
        h = Histogram.from_values([1, 2, 3, 4, 5])
        wide = h.select_range(lo=2, hi=4, hi_inclusive=True)
        narrow = h.select_range(lo=2, hi=4, hi_inclusive=False)
        assert wide >= narrow

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=5,
                 max_size=200),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60)
    def test_eq_bounded_property(self, values, probe):
        h = Histogram.from_values(values)
        assert 0.0 <= h.select_eq(probe) <= 1.0

    @given(
        st.lists(st.integers(min_value=0, max_value=100), min_size=5,
                 max_size=200),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=60)
    def test_range_bounded_property(self, values, lo, hi):
        h = Histogram.from_values(values)
        if lo > hi:
            lo, hi = hi, lo
        assert 0.0 <= h.select_range(lo=lo, hi=hi) <= 1.0


class TestRestriction:
    def test_restricted_eq_is_point(self):
        h = Histogram.from_values(list(range(100)))
        r = h.restricted_eq(42)
        assert len(r.buckets) == 1
        assert r.buckets[0].lo == r.buckets[0].hi == 42.0

    def test_restricted_range_shrinks(self):
        h = Histogram.from_values(list(range(100)))
        r = h.restricted_range(lo=20, hi=40)
        assert r.total_rows() < h.total_rows()
        assert r.buckets[0].lo >= 19

    def test_filtered_scales_rows(self):
        h = Histogram.from_values(list(range(100)))
        assert h.filtered(0.5).total_rows() == pytest.approx(50, rel=0.01)

    def test_filtered_clamps(self):
        h = Histogram.from_values(list(range(10)))
        assert h.filtered(2.0).total_rows() == pytest.approx(10)
        assert h.filtered(-1.0).total_rows() == 0


class TestJoinEstimation:
    def test_key_fk_join(self):
        # Key side: 100 distinct; FK side: 1000 rows over the same domain.
        keys = Histogram.from_values(list(range(100)))
        fks = Histogram.from_values([i % 100 for i in range(1000)])
        card = keys.join_cardinality(fks)
        assert card == pytest.approx(1000, rel=0.35)

    def test_disjoint_domains(self):
        a = Histogram.from_values(list(range(0, 100)))
        b = Histogram.from_values(list(range(1000, 1100)))
        assert a.join_cardinality(b) == pytest.approx(0.0, abs=1e-6)

    def test_self_join(self):
        h = Histogram.from_values(list(range(50)))
        assert h.join_cardinality(h) == pytest.approx(50, rel=0.3)

    def test_join_histogram_rows(self):
        keys = Histogram.from_values(list(range(100)))
        fks = Histogram.from_values([i % 100 for i in range(1000)])
        joined = keys.join_histogram(fks)
        assert joined.total_rows() == pytest.approx(
            keys.join_cardinality(fks), rel=0.2
        )

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=150),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=150),
    )
    @settings(max_examples=40)
    def test_join_card_bounded_by_cross_product(self, left, right):
        a = Histogram.from_values(left)
        b = Histogram.from_values(right)
        card = a.join_cardinality(b)
        assert 0.0 <= card <= len(left) * len(right) * 1.01


class TestUnionAndSkew:
    def test_union_all_rows(self):
        a = Histogram.from_values(list(range(50)))
        b = Histogram.from_values(list(range(100, 150)))
        assert a.union_all(b).total_rows() == pytest.approx(100)

    def test_skew_uniform_is_one(self):
        h = Histogram.from_values(list(range(1000)))
        assert h.skew() == pytest.approx(1.0, rel=0.2)

    def test_skew_detects_heavy_hitter(self):
        values = [1] * 900 + list(range(2, 102))
        h = Histogram.from_values(values)
        assert h.skew() > 2.0


def eager_filtered(hist: Histogram, selectivity: float) -> Histogram:
    """Reference: the eager ``filtered`` the lazy view replaced."""
    selectivity = min(max(selectivity, 0.0), 1.0)
    return Histogram(
        buckets=tuple(b.scaled(selectivity) for b in hist.buckets),
        null_rows=hist.null_rows * selectivity,
    )


_VALUES = st.lists(
    st.one_of(st.none(), st.integers(-50, 50)), min_size=0, max_size=80
)
_SELECTIVITIES = st.lists(
    st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=4
)


class TestLazyFiltered:
    """``filtered`` defers the bucket copies; nothing else may change:
    floats are compared with ``==``, never approximately."""

    @staticmethod
    def _chains(values, sels):
        lazy = eager = Histogram.from_values(values, num_buckets=8)
        for sel in sels:
            lazy, eager = lazy.filtered(sel), eager_filtered(eager, sel)
        return lazy, eager

    def test_view_copies_nothing_until_read(self):
        base = Histogram.from_values(list(range(100)))
        view = base.filtered(0.5).filtered(0.5)
        assert "buckets" not in vars(view)
        assert "buckets" not in vars(vars(view)["_base"])
        assert view.null_rows == 0.0  # needs no buckets
        assert len(view.buckets) == len(base.buckets)
        assert "buckets" in vars(view)

    @given(_VALUES, _SELECTIVITIES)
    @settings(max_examples=80, deadline=None)
    def test_buckets_and_nulls_identical(self, values, sels):
        lazy, eager = self._chains(values, sels)
        assert lazy.null_rows == eager.null_rows
        assert lazy.buckets == eager.buckets
        assert lazy == eager and hash(lazy) == hash(eager)

    @given(_VALUES, _SELECTIVITIES, st.integers(-60, 60), st.integers(-60, 60))
    @settings(max_examples=80, deadline=None)
    def test_estimates_identical(self, values, sels, probe, other):
        # A fresh chain per estimate: each one is the view's first read.
        lo, hi = sorted((probe, other))
        for estimate in (
            lambda h: h.select_eq(probe),
            lambda h: h.select_range(lo=lo, hi=hi),
            lambda h: h.total_rows(),
            lambda h: h.restricted_range(lo=lo, hi=hi),
        ):
            lazy, eager = self._chains(values, sels)
            assert estimate(lazy) == estimate(eager)

    @given(_VALUES, _VALUES, _SELECTIVITIES, _SELECTIVITIES)
    @settings(max_examples=60, deadline=None)
    def test_joins_and_unions_identical(self, left, right, sels_l, sels_r):
        for combine in (
            lambda a, b: a.join_cardinality(b),
            lambda a, b: a.join_histogram(b),
            lambda a, b: a.join_cardinality(b, a.join_slices(b)),
            lambda a, b: a.union_all(b),
        ):
            lazy_l, eager_l = self._chains(left, sels_l)
            lazy_r, eager_r = self._chains(right, sels_r)
            assert combine(lazy_l, lazy_r) == combine(eager_l, eager_r)

    @given(_VALUES, _SELECTIVITIES)
    @settings(max_examples=25, deadline=None)
    def test_dxl_of_a_never_read_view(self, values, sels):
        import xml.etree.ElementTree as ET

        from repro.catalog.database import Database
        from repro.catalog.schema import Column, Table
        from repro.catalog.statistics import TableStats
        from repro.catalog.types import INT
        from repro.dxl.parser import parse_metadata
        from repro.dxl.serializer import serialize_metadata

        def dump(hist):
            db = Database()
            db.create_table(Table("t", [Column("c", INT)]))
            db.set_stats("t", TableStats(
                10.0, {"c": ColumnStats(ndv=1.0, histogram=hist)}
            ))
            return serialize_metadata(db)

        lazy, eager = self._chains(values, sels)
        assert "buckets" not in vars(lazy)
        lazy_dxl = dump(lazy)
        assert ET.tostring(lazy_dxl) == ET.tostring(dump(eager))
        restored = parse_metadata(lazy_dxl).stats("t").column("c").histogram
        assert restored == eager

    def test_view_survives_pickle_unread(self):
        import pickle

        base = Histogram.from_values(list(range(50)) + [None] * 5)
        clone = pickle.loads(pickle.dumps(base.filtered(0.25)))
        assert "buckets" not in vars(clone)
        assert clone == eager_filtered(base, 0.25)


def slice_of(hist: Histogram, lo: float, hi: float) -> tuple[float, float]:
    """(rows, ndv) of ``hist`` restricted to [lo, hi): the per-slice
    reference ``Histogram._cut`` is checked against.  Only buckets
    overlapping [lo, hi) can contribute; the rest add exactly +0.0, so
    summing the overlapping buckets' terms in bucket order is
    float-identical to the full scan."""
    rows = 0.0
    ndv = 0.0
    for b in hist.buckets:
        bw = b.hi - b.lo
        if bw <= 0:
            continue
        inter = (b.hi if b.hi < hi else hi) - (b.lo if b.lo > lo else lo)
        if inter <= 0:
            continue
        frac = inter / bw
        if frac > 1.0:
            frac = 1.0
        rows += b.rows * frac
        ndv += b.ndv * frac
    return rows, ndv


def per_slice_join_slices(a: Histogram, b: Histogram) -> list[tuple]:
    """Reference: the slices cut one ``slice_of`` scan per slice and
    side, as ``join_slices`` did before it cut each histogram in one
    pass."""
    bounds = sorted(
        {x for h in (a, b) for bk in h.buckets for x in (bk.lo, bk.hi)}
    )
    return [
        (lo, hi, *slice_of(a, lo, hi), *slice_of(b, lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def scan_point(hist: Histogram, p: float) -> tuple[float, float]:
    """Reference: ``_point`` scanning every bucket."""
    rows = 0.0
    ndv = 0.0
    for b in hist.buckets:
        if b.width() == 0 and b.lo == p:
            rows += b.rows
            ndv = max(ndv, 1.0)
        elif b.lo <= p < b.hi and b.ndv >= 1:
            rows += b.rows / b.ndv
            ndv = max(ndv, 1.0)
    return rows, ndv


def bits(value):
    """Floats as their exact hex spelling, so ``==`` is bit-for-bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Bucket):
        return bits((value.lo, value.hi, value.rows, value.ndv))
    return [bits(item) for item in value]


#: A histogram recipe: built afresh for each side of a comparison, so a
#: lazy view is read for the first time by the code under test.
_RECIPES = st.one_of(
    st.just(("empty",)),
    st.tuples(
        st.just("values"),
        st.lists(st.integers(-40, 40), max_size=120),
        st.integers(1, 16),
    ),
    # Explicit buckets over a sorted cut list: equal neighbouring cuts
    # make point buckets, a shared cut makes two buckets touch, and a
    # skipped pair leaves a gap.
    st.tuples(
        st.just("buckets"),
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-30, 30),
                    st.floats(-30, 30, allow_nan=False, allow_infinity=False),
                ),
                st.booleans(),
                st.floats(0, 500, allow_nan=False),
                st.floats(0, 50, allow_nan=False),
            ),
            min_size=1, max_size=24,
        ),
    ),
).flatmap(lambda recipe: st.tuples(
    st.just(recipe), st.one_of(st.none(), st.floats(0, 1.2, allow_nan=False)),
))


def make_histogram(recipe) -> Histogram:
    (kind, *args), selectivity = recipe
    if kind == "empty":
        hist = Histogram(buckets=())
    elif kind == "values":
        values, num_buckets = args
        hist = Histogram.from_values(values, num_buckets)
    else:
        (cuts,) = args
        points = sorted(float(cut) for cut, _keep, _rows, _ndv in cuts)
        pairs = zip(points, points[1:], cuts)
        hist = Histogram(buckets=tuple(
            Bucket(lo, hi, rows, ndv)
            for lo, hi, (_cut, keep, rows, ndv) in pairs
            if keep
        ))
    return hist if selectivity is None else hist.filtered(selectivity)


class TestOnePassJoin:
    """``join_slices`` cuts each histogram in one pass and ``_point``
    bisects to its candidate buckets; the per-slice ``_slice`` scan and
    the full-scan point stay as the reference, and every float of every
    join estimate must equal it bit for bit."""

    @given(_RECIPES, _RECIPES)
    @settings(max_examples=200, deadline=None)
    def test_join_slices_match_the_per_slice_scan(self, left, right):
        one_pass = make_histogram(left).join_slices(make_histogram(right))
        reference = per_slice_join_slices(
            make_histogram(left), make_histogram(right)
        )
        assert bits(one_pass) == bits(reference)

    @given(_RECIPES, _RECIPES)
    @settings(max_examples=200, deadline=None)
    def test_join_estimates_match_the_reference(self, left, right):
        a, b = make_histogram(left), make_histogram(right)
        card, joined = a.join_cardinality(b), a.join_histogram(b)
        a, b = make_histogram(left), make_histogram(right)
        with mock.patch.object(Histogram, "_point", scan_point):
            slices = per_slice_join_slices(a, b)
            ref_card = a.join_cardinality(b, slices)
            ref_joined = a.join_histogram(b, slices)
        assert bits(card) == bits(ref_card)
        assert bits(joined.buckets) == bits(ref_joined.buckets)
        assert bits(joined.null_rows) == bits(ref_joined.null_rows)

    @given(_RECIPES, st.lists(st.integers(-45, 45), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_point_matches_the_full_scan(self, recipe, probes):
        hist = make_histogram(recipe)
        edges = {x for bucket in hist.buckets for x in (bucket.lo, bucket.hi)}
        for p in sorted(edges | {float(p) for p in probes}):
            assert bits(hist._point(p)) == bits(scan_point(hist, p)), p

    def test_point_and_touching_buckets_are_covered(self):
        hist = Histogram(buckets=(
            Bucket(0.0, 0.0, 5.0, 1.0),
            Bucket(0.0, 4.0, 8.0, 4.0),
            Bucket(4.0, 9.0, 10.0, 5.0),
            Bucket(12.0, 12.0, 3.0, 1.0),
        ))
        other = Histogram.from_values([0, 0, 0, 3, 5, 7, 9, 12, 12])
        assert bits(hist.join_slices(other)) == bits(
            per_slice_join_slices(hist, other)
        )
        assert hist._point(0.0) == scan_point(hist, 0.0) == (5.0 + 2.0, 1.0)
        assert hist._point(4.0) == scan_point(hist, 4.0) == (2.0, 1.0)
        empty = Histogram(buckets=())
        assert hist.join_slices(empty) == per_slice_join_slices(hist, empty)


class TestColumnStats:
    def test_from_values(self):
        cs = ColumnStats.from_values([1, 2, 2, 3, None])
        assert cs.ndv == 3
        assert cs.null_frac == pytest.approx(0.2)

    def test_scaled_reduces_ndv(self):
        cs = ColumnStats.from_values(list(range(100)))
        scaled = cs.scaled(0.1)
        assert scaled.ndv <= cs.ndv

    def test_scaled_noop_at_one(self):
        cs = ColumnStats.from_values(list(range(100)))
        assert cs.scaled(1.0).ndv == cs.ndv
