"""The simulated shared-nothing cluster (Figure 1).

A master plus N segments over one :class:`~repro.catalog.Database`.
Tables are laid out per their distribution policy; the executor moves
rows between segments through simulated motions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from repro.catalog.database import Database

#: Default per-node working memory (bytes) for hash tables and sorts.
DEFAULT_MEMORY_LIMIT = 64 * 1024 * 1024


#: The routing memo: ``value -> (class, crc32 of its repr)``.  Equal
#: values of different classes (``1`` / ``1.0`` / ``True``) share a key,
#: so a hit counts only when its class matches and the others are hashed
#: afresh.  ``-0.0`` is hashed as ``0.0``: the two are one key, and equal
#: SQL values must route together whichever of them a process met first.
#: Bounded so adversarial key domains cannot grow it without limit.
_HASHES: dict = {None: (type(None), 0)}
_HASHES_MAX = 1 << 20


def stable_hash(value: Any) -> int:
    """Deterministic cross-process hash used for data distribution; the
    slow path of the routing memo."""
    try:
        hit = _HASHES.get(value)
    except TypeError:  # unhashable value: compute directly
        return zlib.crc32(repr(value).encode("utf-8"))
    cls = value.__class__
    if hit is not None and hit[0] is cls:
        return hit[1]
    h = zlib.crc32(repr(0.0 if cls is float and value == 0 else value).encode("utf-8"))
    if hit is None and len(_HASHES) < _HASHES_MAX:
        _HASHES[value] = (cls, h)
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
    #: The engine's cache of base-table scan layouts, keyed by (table,
    #: partitions, columns, segments) and holding ``(row-data version,
    #: row count, layout)``: the hash distribution of a stored table is a
    #: pure function of the key and the rows (``Database.data_version``),
    #: so the engine computes it once per cluster and re-serves
    #: the buckets to every later scan until an insert / truncate moves
    #: the version, which replaces the entry.  Scan *charges* stay
    #: per-execution; only the redundant re-hash is skipped.  Both
    #: execution modes scan through it.
    scan_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def distribute_rows(
        self, rows: Iterable[tuple], key_positions: Optional[Sequence[int]]
    ) -> list[list[tuple]]:
        """Split rows into per-segment buckets (hash or round-robin), in
        input order.  A motion passes its child's buckets chained, so no
        concatenated copy is built.  Each row costs one memo probe per
        key column and one bound ``append``; only a memo miss calls
        :func:`stable_hash`.  Buckets equal :func:`hash_bucket`'s."""
        segments = self.segments
        if segments == 1:
            # Both routing schemes map every row to bucket 0.
            return [list(rows)]
        buckets: list[list[tuple]] = [[] for _ in range(segments)]
        if not key_positions:
            for i, row in enumerate(rows):
                buckets[i % segments].append(row)
            return buckets
        appends = [b.append for b in buckets]
        get = _HASHES.get
        if len(key_positions) == 1:
            # hash_bucket([v], s) reduces to stable_hash(v) % s: crc32
            # already fits 32 bits, so the mixing step is the identity.
            (p,) = key_positions
            for row in rows:
                v = row[p]
                try:
                    hit = get(v)
                except TypeError:  # unhashable: stable_hash hashes it
                    hit = None
                if hit is None or hit[0] is not v.__class__:
                    appends[stable_hash(v) % segments](row)
                else:
                    appends[hit[1] % segments](row)
            return buckets
        for row in rows:
            acc = 0
            for p in key_positions:
                v = row[p]
                try:
                    hit = get(v)
                except TypeError:
                    hit = None
                if hit is None or hit[0] is not v.__class__:
                    acc = (acc * 1000003 + stable_hash(v)) & 0xFFFFFFFF
                else:
                    acc = (acc * 1000003 + hit[1]) & 0xFFFFFFFF
            appends[acc % segments](row)
        return buckets
