"""The metadata cache (Section 3, MD Cache).

"Orca caches metadata on the optimizer side and only retrieves pieces of
it from the catalog if something is unavailable in the cache, or has
changed since the last time it was loaded."  Objects are pinned while an
optimization session uses them and unpinned when it completes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mdp.mdid import MDId


@dataclass
class _Entry:
    mdid: MDId
    obj: Any
    pins: int = 0
    hits: int = 0


class MDCache:
    """Version-aware cache of metadata objects keyed by mdid."""

    def __init__(self) -> None:
        self._entries: dict[tuple, _Entry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, mdid: MDId) -> Optional[Any]:
        """Cached object for this mdid; stale versions are evicted."""
        entry = self._entries.get(mdid.base_key())
        if entry is None:
            self.misses += 1
            return None
        if entry.mdid.version != mdid.version:
            # The object changed in the backend: invalidate.
            self.invalidations += 1
            self.misses += 1
            del self._entries[mdid.base_key()]
            return None
        self.hits += 1
        entry.hits += 1
        return entry.obj

    def store(self, mdid: MDId, obj: Any) -> None:
        self._entries[mdid.base_key()] = _Entry(mdid=mdid, obj=obj)

    def pin(self, mdid: MDId) -> None:
        entry = self._entries.get(mdid.base_key())
        if entry is not None:
            entry.pins += 1

    def unpin(self, mdid: MDId) -> None:
        entry = self._entries.get(mdid.base_key())
        if entry is not None and entry.pins > 0:
            entry.pins -= 1

    def __len__(self) -> int:
        return len(self._entries)
