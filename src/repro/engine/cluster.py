"""The simulated shared-nothing cluster (Figure 1).

A master plus N segments over one :class:`~repro.catalog.Database`.
Tables are laid out per their distribution policy; the executor moves
rows between segments through simulated motions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.catalog.database import Database

#: Default per-node working memory (bytes) for hash tables and sorts.
DEFAULT_MEMORY_LIMIT = 64 * 1024 * 1024


#: Memo for :func:`stable_hash`, keyed by (type, value) — ``repr`` is a
#: pure function of both, and equal-but-distinct values (``1`` / ``1.0``
#: / ``True``) must keep their distinct hashes.  Bounded so adversarial
#: key domains cannot grow it without limit.
_HASH_CACHE: dict = {}
_HASH_CACHE_MAX = 1 << 20


def stable_hash(value: Any) -> int:
    """Deterministic cross-process hash used for data distribution."""
    if value is None:
        return 0
    try:
        key = (value.__class__, value)
        h = _HASH_CACHE.get(key)
    except TypeError:  # unhashable value: compute directly
        return zlib.crc32(repr(value).encode("utf-8"))
    if h is None:
        h = zlib.crc32(repr(value).encode("utf-8"))
        if len(_HASH_CACHE) < _HASH_CACHE_MAX:
            _HASH_CACHE[key] = h
    return h


def hash_bucket(values: Sequence[Any], segments: int) -> int:
    acc = 0
    for v in values:
        acc = (acc * 1000003 + stable_hash(v)) & 0xFFFFFFFF
    return acc % segments


@dataclass
class Cluster:
    """Execution substrate configuration."""

    db: Database
    segments: int = 16
    #: Per-node working memory for blocking operators.
    memory_limit_bytes: int = DEFAULT_MEMORY_LIMIT
    #: Whether operators may spill to disk instead of failing with OOM
    #: (Impala-like engines in Section 7.3.2 cannot).
    spill_enabled: bool = True
    #: Fused-engine cache of base-table scan layouts, keyed by (table,
    #: partitions, columns, segments) and holding ``(row-data version,
    #: row count, layout)``: the hash distribution of a stored table is a
    #: pure function of the key and the rows (``Database.data_version``),
    #: so the fused engine computes it once per cluster and re-serves
    #: the buckets to every later scan until an insert / truncate moves
    #: the version, which replaces the entry.  Scan *charges* stay
    #: per-execution; only the redundant re-hash is skipped.  Row mode
    #: never reads this.
    scan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def distribute_rows(
        self, rows: list[tuple], key_positions: Optional[Sequence[int]]
    ) -> list[list[tuple]]:
        """Split rows into per-segment buckets (hash or round-robin)."""
        segments = self.segments
        if segments == 1:
            # Both routing schemes map every row to bucket 0.
            return [list(rows)]
        buckets: list[list[tuple]] = [[] for _ in range(segments)]
        if key_positions:
            if len(key_positions) == 1:
                # hash_bucket([v], s) reduces to stable_hash(v) % s:
                # crc32 already fits 32 bits, so the mixing step is the
                # identity for a single key.
                p = key_positions[0]
                sh = stable_hash
                for row in rows:
                    buckets[sh(row[p]) % segments].append(row)
            else:
                for row in rows:
                    key = [row[p] for p in key_positions]
                    buckets[hash_bucket(key, segments)].append(row)
        else:
            for i, row in enumerate(rows):
                buckets[i % segments].append(row)
        return buckets
