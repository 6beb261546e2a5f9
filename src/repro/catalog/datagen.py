"""Reverse-statistics data generation.

The paper's verifiability toolbox includes "a data generator that can
generate data by reversing database statistics" (Section 6, ref [24]).
Two flavors live here:

- :class:`ReverseStatsGenerator`: a table is described by per-column
  :class:`ColumnSpec` distributions (uniform ranges, zipf-skewed domains,
  categorical sets, foreign keys into already-generated tables,
  sequences) and the generator materializes rows whose ANALYZE output
  approximates the spec (used by the TPC-DS workload).

- :func:`generate_from_stats`: the literal ref-[24] mechanism — given a
  :class:`~repro.catalog.statistics.TableStats` harvested from a customer
  system (e.g. out of an AMPERe dump), synthesize rows whose re-ANALYZEd
  statistics approximate it, so customer plan regressions reproduce
  without customer data.

Draw order.  One ``random.Random(seed)`` feeds every table, so a seed
names one database.  :meth:`ReverseStatsGenerator.populate` draws row by
row and, within a row, column by column in schema order.  Each value
first makes one ``random()`` call for its NULL test when its spec has a
``null_frac``, then its kind's calls:

- ``serial`` and ``expr``: none (an ``expr`` reads the row's earlier
  columns);
- ``uniform_int``: ``randint(lo, hi)``;
- ``zipf_int``: ``random()``;
- ``uniform_float``: ``uniform(lo, hi)``, rounded to two places;
- ``choice``: ``choice(values)``, or ``choices(values, cum_weights)``
  with weights;
- ``fk``: ``choice(domain)``, where the domain is the referenced
  column's non-NULL values in generation order.

Tables are drawn in the order the caller populates them.  Any change to
these calls or their order changes every row after it;
``tests/test_datagen_pin.py`` pins the result.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.catalog.database import Database
from repro.catalog.statistics import Bucket, TableStats
from repro.catalog.types import DataType, ordinal_to_date
from repro.errors import CatalogError


@dataclass(frozen=True)
class ColumnSpec:
    """Distribution of one generated column.

    Exactly one *kind* applies:

    - ``kind='serial'``: 1, 2, 3, ... (primary keys)
    - ``kind='uniform_int'``: integers uniform in [lo, hi]
    - ``kind='zipf_int'``: integers in [lo, hi] with zipf-like skew ``s``
    - ``kind='uniform_float'``: floats uniform in [lo, hi]
    - ``kind='choice'``: categorical draw from ``values`` (optional weights)
    - ``kind='fk'``: uniform draw from the generated keys of ``ref`` column
    - ``kind='expr'``: computed from the partial row via ``fn``
    """

    kind: str
    lo: Any = None
    hi: Any = None
    s: float = 1.2
    values: Optional[tuple] = None
    weights: Optional[tuple] = None
    ref: Optional[tuple[str, str]] = None  # (table, column)
    fn: Optional[Callable[[dict], Any]] = None
    null_frac: float = 0.0

    @staticmethod
    def serial() -> "ColumnSpec":
        return ColumnSpec("serial")

    @staticmethod
    def uniform_int(lo: int, hi: int, null_frac: float = 0.0) -> "ColumnSpec":
        return ColumnSpec("uniform_int", lo=lo, hi=hi, null_frac=null_frac)

    @staticmethod
    def zipf_int(lo: int, hi: int, s: float = 1.2) -> "ColumnSpec":
        return ColumnSpec("zipf_int", lo=lo, hi=hi, s=s)

    @staticmethod
    def uniform_float(lo: float, hi: float) -> "ColumnSpec":
        return ColumnSpec("uniform_float", lo=lo, hi=hi)

    @staticmethod
    def choice(values: Sequence[Any], weights: Optional[Sequence[float]] = None,
               null_frac: float = 0.0) -> "ColumnSpec":
        return ColumnSpec(
            "choice", values=tuple(values),
            weights=tuple(weights) if weights else None, null_frac=null_frac,
        )

    @staticmethod
    def fk(table: str, column: str, null_frac: float = 0.0) -> "ColumnSpec":
        return ColumnSpec("fk", ref=(table, column), null_frac=null_frac)

    @staticmethod
    def expr(fn: Callable[[dict], Any]) -> "ColumnSpec":
        return ColumnSpec("expr", fn=fn)


class ReverseStatsGenerator:
    """Generates table data from column distribution specs.

    Generated key domains are remembered so later tables can draw foreign
    keys from them, preserving referential integrity -- the property the
    TPC-DS workload relies on for non-empty join results.
    """

    def __init__(self, db: Database, seed: int = 42):
        self.db = db
        self._rng = random.Random(seed)
        #: (table, column) -> list of generated values, for FK draws.
        self._domains: dict[tuple[str, str], list[Any]] = {}

    def populate(
        self, table_name: str, row_count: int,
        specs: dict[str, ColumnSpec],
    ) -> int:
        """Generate and insert ``row_count`` rows for ``table_name``."""
        table = self.db.table(table_name)
        missing = [c.name for c in table.columns if c.name not in specs]
        if missing:
            raise CatalogError(
                f"no ColumnSpec for columns {missing} of {table_name}"
            )
        col_names = table.column_names()
        # The partial row an ``expr`` column reads; filled in column order.
        row: dict[str, Any] = {}
        named = [(name, self._drawer(specs[name], row)) for name in col_names]
        rows = []
        for _ in range(row_count):
            row.clear()
            for name, draw in named:
                row[name] = draw()
            rows.append(tuple(row.values()))
        for pos, name in enumerate(col_names):
            self._domains[(table_name, name)] = [
                r[pos] for r in rows if r[pos] is not None
            ]
        return self.db.insert(table_name, rows)

    # ------------------------------------------------------------------
    def _drawer(self, spec: ColumnSpec, row: dict) -> Callable[[], Any]:
        """The one function that draws ``spec``'s values, chosen once per
        table: each call makes the RNG calls of one value, in the order
        the module docstring fixes."""
        rng = self._rng
        kind = spec.kind
        if kind == "serial":
            draw = itertools.count(1).__next__
        elif kind == "uniform_int":
            draw = partial(rng.randint, spec.lo, spec.hi)
        elif kind == "zipf_int":
            draw = self._make_zipf(spec)
        elif kind == "uniform_float":
            uniform, lo, hi = rng.uniform, spec.lo, spec.hi

            def draw():
                return round(uniform(lo, hi), 2)
        elif kind == "choice" and spec.weights:
            choices, values = rng.choices, spec.values
            cum_weights = list(itertools.accumulate(spec.weights))

            def draw():
                return choices(values, cum_weights=cum_weights)[0]
        elif kind == "choice":
            draw = partial(rng.choice, spec.values)
        elif kind == "fk":
            domain = self._domains.get(spec.ref or ("", ""))
            if domain:
                draw = partial(rng.choice, domain)
            else:
                draw = _refuse(f"FK target {spec.ref} has no generated domain yet")
        elif kind == "expr":
            assert spec.fn is not None
            draw = partial(spec.fn, row)
        else:
            draw = _refuse(f"unknown ColumnSpec kind {spec.kind}")
        if not spec.null_frac:
            return draw
        value, null_frac, rand = draw, spec.null_frac, rng.random
        if kind == "serial":
            # The row number advances past a NULL too.
            def draw():
                v = value()
                return None if rand() < null_frac else v
        else:
            def draw():
                return None if rand() < null_frac else value()
        return draw

    def _make_zipf(self, spec: ColumnSpec) -> Callable[[], int]:
        """Precompute a zipf-like sampler over [lo, hi]."""
        n = spec.hi - spec.lo + 1
        weights = [1.0 / (rank ** spec.s) for rank in range(1, n + 1)]
        total = sum(weights)
        cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        lo, last, rand = spec.lo, len(cum) - 1, self._rng.random

        def sample() -> int:
            return lo + min(bisect_left(cum, rand()), last)

        return sample


def _refuse(message: str) -> Callable[[], Any]:
    """A drawer for a spec that cannot draw: it fails on the first value,
    so a table of zero rows still populates."""
    def draw():
        raise CatalogError(message)
    return draw


# ----------------------------------------------------------------------
# Reversing harvested statistics (the literal ref-[24] mechanism)
# ----------------------------------------------------------------------

def _decode_axis(dtype: DataType, axis: float):
    """Invert :func:`repro.catalog.statistics.axis_value` per type."""
    if dtype.name == "bool":
        return axis >= 0.5
    if dtype.name in ("int4", "int8"):
        return int(round(axis))
    if dtype.name in ("float8", "decimal"):
        return float(axis)
    if dtype.name == "date":
        return ordinal_to_date(int(round(axis)))
    # text: decode up to 8 base-256 digits back into characters
    acc = int(axis)
    chars = []
    for _ in range(8):
        acc, digit = divmod(acc, 256)
        if digit:
            chars.append(chr(min(digit, 126)))
    return "".join(reversed(chars)) or "v"


class _BucketSampler:
    """Draws values from one histogram bucket, honoring its NDV.

    Near-unique buckets (ndv ~ rows, e.g. key columns) enumerate their
    quantized slots sequentially instead of sampling with replacement —
    otherwise the birthday paradox would collapse the regenerated
    distinct count to ~63% of the harvested one.
    """

    def __init__(self, dtype: DataType, bucket: Bucket):
        self.dtype = dtype
        self.bucket = bucket
        self.slots = max(int(round(bucket.ndv)), 1)
        self.sequential = bucket.rows > 0 and bucket.ndv >= 0.9 * bucket.rows
        self._cursor = 0

    def sample(self, rng: random.Random):
        bucket = self.bucket
        if bucket.width() == 0 or bucket.ndv <= 1:
            return _decode_axis(self.dtype, bucket.lo)
        if self.sequential:
            slot = self._cursor % self.slots
            self._cursor += 1
        else:
            slot = rng.randrange(self.slots)
        axis = bucket.lo + (bucket.hi - bucket.lo) * (slot + 0.5) / self.slots
        return _decode_axis(self.dtype, axis)


def generate_from_stats(
    db: Database,
    table_name: str,
    stats: TableStats,
    rows: Optional[int] = None,
    seed: int = 42,
) -> int:
    """Insert synthetic rows approximating harvested table statistics.

    Columns are sampled independently from their histograms (bucket
    chosen proportionally to its row count, value drawn from the
    bucket's quantized domain), with NULLs injected per the harvested
    null fraction.  Cross-column correlations are not reproduced — the
    same limitation ref [24] documents — but per-column selectivities,
    NDVs and therefore single-table plan choices are.
    """
    table = db.table(table_name)
    n = int(rows if rows is not None else stats.row_count)
    rng = random.Random(seed)
    samplers = []
    for col in table.columns:
        col_stats = stats.column(col.name)
        if col_stats is None or col_stats.histogram is None \
                or not col_stats.histogram.buckets:
            samplers.append(lambda rng=rng: None)
            continue
        hist = col_stats.histogram
        buckets = list(hist.buckets)
        weights = [max(b.rows, 0.0) for b in buckets]
        total = sum(weights)
        if total <= 0:
            samplers.append(lambda rng=rng: None)
            continue
        cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cum.append(acc)
        null_frac = col_stats.null_frac

        bucket_samplers = [_BucketSampler(col.dtype, b) for b in buckets]

        def make_sampler(bucket_samplers=bucket_samplers, cum=cum,
                         null_frac=null_frac):
            last = len(cum) - 1

            def sample():
                if null_frac and rng.random() < null_frac:
                    return None
                pick = min(bisect_left(cum, rng.random()), last)
                return bucket_samplers[pick].sample(rng)
            return sample

        samplers.append(make_sampler())
    generated = [
        tuple(sample() for sample in samplers) for _ in range(n)
    ]
    if table.partitioning is not None:
        part_pos = table.column_index(table.partitioning.column)
        generated = [
            row for row in generated
            if row[part_pos] is not None
            and table.partitioning.route(row[part_pos]) is not None
        ]
    return db.insert(table_name, generated)
