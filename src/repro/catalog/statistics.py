"""Histogram-based statistics.

A statistics object in Orca is "mainly a collection of column histograms used
to derive estimates for cardinality and data skew" (Section 4.1, step 2).
This module provides the histogram primitive those estimates are built on:
equi-depth buckets carrying a row count and a distinct-value count, plus the
filter/join arithmetic used by :mod:`repro.stats.derivation`.

All bucket boundaries live on a numeric axis; dates and strings are mapped
onto it by :func:`axis_value` so one arithmetic implementation serves every
type.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from datetime import date
from typing import Any, Iterable, Optional, Sequence

from repro.catalog.types import date_to_ordinal

DEFAULT_BUCKETS = 32

#: Value types whose histogram axis is ``float(v)``.
_NUMBER_TYPES = frozenset({int, float, bool})

#: Fallback selectivities when no histogram is available (System R legacy).
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 0.33


def axis_value(value: Any) -> float:
    """Map a SQL value onto the numeric histogram axis."""
    if value is None:
        return math.nan
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, date):
        return float(date_to_ordinal(value))
    if isinstance(value, str):
        # Stable order-preserving embedding of the first 8 characters.
        acc = 0
        padded = (value[:8]).ljust(8, "\x00")
        for ch in padded:
            acc = acc * 256 + min(ord(ch), 255)
        return float(acc)
    raise TypeError(f"cannot place {value!r} on the histogram axis")


def _axis_values(values: list) -> list[float]:
    """``[axis_value(v) for v in values]``, with one C call per value
    when every value is a number."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        # The axis of a number is ``float(v)``: one C call each.
        return list(map(float, values))
    return [axis_value(v) for v in values]


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket over the half-open interval [lo, hi).

    The final bucket of a histogram is closed on both sides.  ``rows`` is the
    estimated number of rows falling in the bucket and ``ndv`` the estimated
    number of distinct values among them.
    """

    lo: float
    hi: float
    rows: float
    ndv: float

    def width(self) -> float:
        return max(self.hi - self.lo, 0.0)

    def scaled(self, factor: float) -> "Bucket":
        """Scale row count (and NDV, sub-linearly) by ``factor`` in [0, 1+]."""
        new_rows = self.rows * factor
        new_ndv = min(self.ndv, max(new_rows and 1.0, self.ndv * factor))
        if new_rows == 0:
            new_ndv = 0.0
        return Bucket(self.lo, self.hi, new_rows, new_ndv)

    def overlap_fraction(self, lo: float, hi: float) -> float:
        """Fraction of this bucket's width overlapping [lo, hi)."""
        if self.width() == 0:
            return 1.0 if lo <= self.lo < hi else 0.0
        inter = min(self.hi, hi) - max(self.lo, lo)
        if inter <= 0:
            return 0.0
        return min(inter / self.width(), 1.0)


@dataclass(frozen=True)
class Histogram:
    """An equi-depth histogram with per-bucket NDV."""

    buckets: tuple[Bucket, ...]
    null_rows: float = 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls, values: Iterable[Any], num_buckets: int = DEFAULT_BUCKETS
    ) -> "Histogram":
        """Build an equi-depth histogram from raw column values."""
        values = list(values)
        non_null = [v for v in values if v is not None]
        return cls._from_axis(
            _axis_values(non_null), len(values) - len(non_null), num_buckets
        )

    @classmethod
    def _from_axis(
        cls, axis: list[float], nulls: int, num_buckets: int
    ) -> "Histogram":
        """The histogram of non-NULL values at ``axis`` (sorted in place)
        and ``nulls`` NULLs."""
        axis.sort()
        if not axis:
            return cls(buckets=(), null_rows=float(nulls))
        n = len(axis)
        num_buckets = max(1, min(num_buckets, n))
        per = n / num_buckets
        buckets: list[Bucket] = []
        start = 0
        for i in range(num_buckets):
            end = n if i == num_buckets - 1 else int(round((i + 1) * per))
            end = max(end, start + 1)
            end = min(end, n)
            # Never split one value across buckets: extend to the value
            # boundary so per-bucket NDV sums to the true distinct count
            # and heavy hitters surface as dense point buckets (skew).
            while end < n and axis[end] == axis[end - 1]:
                end += 1
            chunk = axis[start:end]
            if not chunk:
                continue
            lo = chunk[0]
            hi = chunk[-1]
            ndv = len(set(chunk))
            buckets.append(Bucket(lo, hi, float(len(chunk)), float(ndv)))
            start = end
            if start >= n:
                break
        return cls(buckets=cls._mend(buckets), null_rows=float(nulls))

    @classmethod
    def uniform(
        cls, lo: float, hi: float, rows: float, ndv: float,
        num_buckets: int = DEFAULT_BUCKETS,
    ) -> "Histogram":
        """A synthetic uniform histogram (used by the data generator)."""
        if rows <= 0:
            return cls(buckets=())
        num_buckets = max(1, min(num_buckets, int(ndv) or 1))
        span = (hi - lo) / num_buckets if hi > lo else 0.0
        buckets = []
        for i in range(num_buckets):
            b_lo = lo + i * span
            b_hi = hi if i == num_buckets - 1 else lo + (i + 1) * span
            buckets.append(
                Bucket(b_lo, b_hi, rows / num_buckets, ndv / num_buckets)
            )
        return cls(buckets=tuple(buckets))

    @staticmethod
    def _mend(buckets: Sequence[Bucket]) -> tuple[Bucket, ...]:
        """Ensure buckets are non-overlapping and ordered."""
        fixed: list[Bucket] = []
        for b in buckets:
            if fixed and b.lo < fixed[-1].hi:
                prev = fixed[-1]
                if b.hi <= prev.hi:
                    # Entirely inside previous bucket: merge.
                    fixed[-1] = Bucket(
                        prev.lo, prev.hi, prev.rows + b.rows,
                        max(prev.ndv, b.ndv),
                    )
                    continue
                b = Bucket(prev.hi, b.hi, b.rows, b.ndv)
            fixed.append(b)
        return tuple(fixed)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_rows(self) -> float:
        return sum(b.rows for b in self.buckets) + self.null_rows

    def non_null_rows(self) -> float:
        return sum(b.rows for b in self.buckets)

    def ndv(self) -> float:
        return sum(b.ndv for b in self.buckets)

    def skew(self) -> float:
        """Coefficient >= 1 measuring how unevenly rows fill buckets.

        1.0 means perfectly uniform; used by the cost model to penalize
        hash redistribution on skewed columns.
        """
        if not self.buckets:
            return 1.0
        mean = self.non_null_rows() / len(self.buckets)
        if mean <= 0:
            return 1.0
        peak = max(b.rows for b in self.buckets)
        return max(peak / mean, 1.0)

    # ------------------------------------------------------------------
    # Filters
    # ------------------------------------------------------------------
    def select_eq(self, value: Any) -> float:
        """Selectivity of ``col = value`` against non-null rows.

        Heavily duplicated values span several equi-depth buckets (often
        as width-zero point buckets), so matching contributions are
        summed across all buckets, not taken from the first hit.
        """
        total = self.non_null_rows()
        if total <= 0:
            return 0.0
        v = axis_value(value)
        rows = 0.0
        for b in self.buckets:
            if b.width() == 0:
                if b.lo == v:
                    rows += b.rows
            elif b.lo <= v < b.hi or (b is self.buckets[-1] and v == b.hi):
                if b.ndv >= 1:
                    rows += b.rows / b.ndv
        return min(rows / total, 1.0)

    def select_range(
        self, lo: Optional[Any] = None, hi: Optional[Any] = None,
        lo_inclusive: bool = True, hi_inclusive: bool = False,
    ) -> float:
        """Selectivity of ``lo <= col < hi`` (bounds optional)."""
        total = self.non_null_rows()
        if total <= 0:
            return 0.0
        a = axis_value(lo) if lo is not None else -math.inf
        b_hi = axis_value(hi) if hi is not None else math.inf
        if hi_inclusive and hi is not None:
            b_hi = math.nextafter(b_hi, math.inf)
        if not lo_inclusive and lo is not None:
            a = math.nextafter(a, math.inf)
        rows = sum(
            bucket.rows * bucket.overlap_fraction(a, b_hi)
            for bucket in self.buckets
        )
        return min(rows / total, 1.0)

    def filtered(self, selectivity: float) -> "Histogram":
        """Return this histogram scaled uniformly by a selectivity.

        The result is a lazy view: it remembers ``(self, selectivity)``
        and scales the buckets on the first read of ``buckets``
        (:meth:`__getattr__`).  Statistics derivation re-scales every
        column of every derived group, and most of those columns are
        never looked at again, so the bucket copies are made only for
        the histograms an estimate actually reads.
        """
        selectivity = min(max(selectivity, 0.0), 1.0)
        view = object.__new__(Histogram)
        vars(view).update(
            _base=self, _factor=selectivity,
            null_rows=self.null_rows * selectivity,
        )
        return view

    def __getattr__(self, name: str):
        # Reached only when normal lookup fails, i.e. for ``buckets`` of
        # a view nobody has read yet.  The same Bucket.scaled calls run
        # in the same order as an eager copy would have made, on the same
        # inputs (a base that is itself a view is forced first), so every
        # float is bit-identical to eager scaling.
        if name != "buckets" or "_base" not in vars(self):
            raise AttributeError(name)
        factor = self._factor
        buckets = tuple(b.scaled(factor) for b in self._base.buckets)
        vars(self)["buckets"] = buckets
        return buckets

    def restricted_eq(self, value: Any) -> "Histogram":
        """Histogram of rows surviving ``col = value``: a single point."""
        v = axis_value(value)
        total = self.non_null_rows()
        sel = self.select_eq(value)
        rows = total * sel
        if rows <= 0:
            return Histogram(buckets=())
        return Histogram(buckets=(Bucket(v, v, rows, 1.0),))

    def restricted_range(
        self, lo: Optional[Any] = None, hi: Optional[Any] = None,
        lo_inclusive: bool = True, hi_inclusive: bool = False,
    ) -> "Histogram":
        """Histogram of rows surviving a range predicate."""
        a = axis_value(lo) if lo is not None else -math.inf
        b_hi = axis_value(hi) if hi is not None else math.inf
        if hi_inclusive and hi is not None:
            b_hi = math.nextafter(b_hi, math.inf)
        if not lo_inclusive and lo is not None:
            a = math.nextafter(a, math.inf)
        out: list[Bucket] = []
        for bucket in self.buckets:
            frac = bucket.overlap_fraction(a, b_hi)
            if frac <= 0:
                continue
            out.append(
                Bucket(
                    max(bucket.lo, a),
                    min(bucket.hi, b_hi),
                    bucket.rows * frac,
                    max(bucket.ndv * frac, 1.0),
                )
            )
        return Histogram(buckets=tuple(out))

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def join_slices(self, other: "Histogram") -> list[tuple[float, ...]]:
        """Both histograms cut at their merged bucket boundaries: one
        ``(lo, hi, rows1, ndv1, rows2, ndv2)`` per slice.

        Cardinality and joined histogram of one equi-join are built from
        the same slices; a caller that needs both computes them once and
        hands them to :meth:`join_cardinality` and :meth:`join_histogram`.
        Each histogram is cut in one pass (:meth:`_cut`); slice for
        slice, the result is bit-identical to cutting each slice with
        its own scan of the overlapping buckets (the per-slice
        reference in ``tests/test_statistics.py``).
        """
        bounds = sorted(
            {b.lo for b in self.buckets} | {b.hi for b in self.buckets}
            | {b.lo for b in other.buckets} | {b.hi for b in other.buckets}
        )
        return list(
            zip(bounds, bounds[1:], *self._cut(bounds), *other._cut(bounds))
        )

    def join_cardinality(
        self, other: "Histogram", slices: Optional[list] = None
    ) -> float:
        """Estimated output rows of an equi-join between the two columns.

        Buckets are aligned on the shared axis; each aligned slice
        contributes r1 * r2 / max(ndv1, ndv2) under the standard containment
        assumption.
        """
        if not self.buckets or not other.buckets:
            return 0.0
        if slices is None:
            slices = self.join_slices(other)
        total = 0.0
        for _lo, _hi, r1, d1, r2, d2 in slices:
            d = max(d1, d2)
            if d >= 1 and r1 > 0 and r2 > 0:
                total += r1 * r2 / d
        # Point buckets (lo == hi) fall between slice boundaries; handle them.
        points = {b.lo for b in self.buckets if b.width() == 0}
        points |= {b.lo for b in other.buckets if b.width() == 0}
        for p in points:
            r1, d1 = self._point(p)
            r2, d2 = other._point(p)
            d = max(d1, d2)
            if d >= 1 and r1 > 0 and r2 > 0:
                total += r1 * r2 / d
        return total

    def join_histogram(
        self, other: "Histogram", slices: Optional[list] = None
    ) -> "Histogram":
        """Histogram of the join column after the equi-join."""
        if not self.buckets or not other.buckets:
            return Histogram(buckets=())
        if slices is None:
            slices = self.join_slices(other)
        out: list[Bucket] = []
        for lo, hi, r1, d1, r2, d2 in slices:
            d = max(d1, d2)
            if d >= 1 and r1 > 0 and r2 > 0:
                out.append(Bucket(lo, hi, r1 * r2 / d, min(d1, d2)))
        return Histogram(buckets=tuple(out))

    def _bounds_arrays(self) -> tuple[list[float], list[float]]:
        """Cached (lo, hi) arrays for binary search; buckets are sorted
        and non-overlapping, so both arrays are non-decreasing."""
        arrays = self.__dict__.get("_bounds_cache")
        if arrays is None:
            arrays = (
                [b.lo for b in self.buckets],
                [b.hi for b in self.buckets],
            )
            # Frozen dataclass: cache through object.__setattr__ (the
            # arrays are derived, not part of equality or hashing).
            object.__setattr__(self, "_bounds_cache", arrays)
        return arrays

    def _cut(self, bounds: list[float]) -> tuple[list[float], list[float]]:
        """(rows, ndv) of this histogram in every slice between
        consecutive ``bounds``, which must include every bucket bound.

        Each bucket therefore covers whole slices: one bisect finds its
        first, and it adds ``rows * frac`` and ``ndv * frac`` to each.
        A slice receives the same terms, in bucket order, that a
        per-slice scan of the overlapping buckets sums for it (inside
        the bucket, that scan's intersection is exactly the slice's own
        width), so the sums are bit-identical.
        """
        n = len(bounds) - 1
        rows = [0.0] * n
        ndv = [0.0] * n
        for b in self.buckets:
            bw = b.hi - b.lo
            if bw <= 0:
                continue
            i = bisect_left(bounds, b.lo)
            lo = bounds[i]
            while lo < b.hi:
                hi = bounds[i + 1]
                frac = (hi - lo) / bw  # never above 1: rounding is monotone
                rows[i] += b.rows * frac
                ndv[i] += b.ndv * frac
                i += 1
                lo = hi
        return rows, ndv

    def _point(self, p: float) -> tuple[float, float]:
        """(rows, ndv) of this histogram at the single point ``p``.

        Only buckets with ``lo <= p <= hi`` can contribute, and they are
        a contiguous run of the sorted buckets: bisecting to it sums the
        same terms in the same order as scanning every bucket.
        """
        rows = 0.0
        ndv = 0.0
        los, his = self._bounds_arrays()
        for b in self.buckets[bisect_left(his, p):bisect_right(los, p)]:
            if b.width() == 0 and b.lo == p:
                rows += b.rows
                ndv = max(ndv, 1.0)
            elif b.lo <= p < b.hi and b.ndv >= 1:
                rows += b.rows / b.ndv
                ndv = max(ndv, 1.0)
        return rows, ndv

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------
    def union_all(self, other: "Histogram") -> "Histogram":
        """Histogram of the bag union of the two columns."""
        return Histogram(
            buckets=Histogram._mend(
                sorted(
                    list(self.buckets) + list(other.buckets),
                    key=lambda b: (b.lo, b.hi),
                )
            ),
            null_rows=self.null_rows + other.null_rows,
        )


@dataclass(frozen=True)
class ColumnStats:
    """Per-column statistics: NDV, null fraction, bounds and a histogram."""

    ndv: float
    null_frac: float = 0.0
    histogram: Optional[Histogram] = None
    width: int = 8

    @classmethod
    def from_values(
        cls, values: Sequence[Any], width: int = 8,
        num_buckets: int = DEFAULT_BUCKETS,
    ) -> "ColumnStats":
        non_null = [v for v in values if v is not None]
        n = len(values)
        nulls = n - len(non_null)
        return cls(
            ndv=float(len(set(non_null))),
            null_frac=nulls / n if n else 0.0,
            histogram=Histogram._from_axis(
                _axis_values(non_null), nulls, num_buckets
            ),
            width=width,
        )

    def scaled(self, selectivity: float) -> "ColumnStats":
        """Stats after an unrelated filter removed a fraction of rows."""
        hist = self.histogram.filtered(selectivity) if self.histogram else None
        return ColumnStats(
            ndv=max(min(self.ndv, self.ndv * selectivity * 2), 1.0)
            if selectivity < 1.0 else self.ndv,
            null_frac=self.null_frac,
            histogram=hist,
            width=self.width,
        )


@dataclass
class TableStats:
    """Statistics for a base table, as produced by ``ANALYZE``."""

    row_count: float
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)
