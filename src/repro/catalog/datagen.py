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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
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
        zipf_samplers = {
            name: self._make_zipf(spec)
            for name, spec in specs.items() if spec.kind == "zipf_int"
        }
        rows = []
        for i in range(row_count):
            row_dict: dict[str, Any] = {}
            for name in col_names:
                spec = specs[name]
                row_dict[name] = self._draw(spec, i, row_dict, zipf_samplers.get(name))
            rows.append(tuple(row_dict[name] for name in col_names))
        for name in col_names:
            self._domains[(table_name, name)] = [
                r[table.column_index(name)] for r in rows
                if r[table.column_index(name)] is not None
            ]
        return self.db.insert(table_name, rows)

    # ------------------------------------------------------------------
    def _draw(
        self, spec: ColumnSpec, i: int, row: dict,
        zipf: Optional[Callable[[], int]],
    ) -> Any:
        if spec.null_frac and self._rng.random() < spec.null_frac:
            return None
        if spec.kind == "serial":
            return i + 1
        if spec.kind == "uniform_int":
            return self._rng.randint(spec.lo, spec.hi)
        if spec.kind == "zipf_int":
            assert zipf is not None
            return zipf()
        if spec.kind == "uniform_float":
            return round(self._rng.uniform(spec.lo, spec.hi), 2)
        if spec.kind == "choice":
            if spec.weights:
                return self._rng.choices(spec.values, weights=spec.weights)[0]
            return self._rng.choice(spec.values)
        if spec.kind == "fk":
            domain = self._domains.get(spec.ref or ("", ""))
            if not domain:
                raise CatalogError(
                    f"FK target {spec.ref} has no generated domain yet"
                )
            return self._rng.choice(domain)
        if spec.kind == "expr":
            assert spec.fn is not None
            return spec.fn(row)
        raise CatalogError(f"unknown ColumnSpec kind {spec.kind}")

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
        lo = spec.lo

        def sample() -> int:
            u = self._rng.random()
            # Binary search over the cumulative weights.
            a, b = 0, len(cum) - 1
            while a < b:
                mid = (a + b) // 2
                if cum[mid] < u:
                    a = mid + 1
                else:
                    b = mid
            return lo + a

        return sample


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
            def sample():
                if null_frac and rng.random() < null_frac:
                    return None
                u = rng.random()
                lo, hi = 0, len(cum) - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if cum[mid] < u:
                        lo = mid + 1
                    else:
                        hi = mid
                return bucket_samplers[lo].sample(rng)
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
