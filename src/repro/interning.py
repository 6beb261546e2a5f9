"""Key interning for optimizer hot paths.

Operator and scalar-expression ``key()`` tuples are the currency of the
Memo: duplicate detection hashes ``(op.key(), child_groups)`` on every
insert, property specs are compared by key, and rule bindings compare
sub-expression keys constantly.  Recomputing these
nested tuples — and re-hashing them on every dict probe — dominates
optimizer CPU once plans get deep.

This module provides a process-wide intern table mapping structurally
equal key tuples to a single canonical :class:`HashedKey` whose hash is
computed exactly once.  Interning changes neither equality nor hashing
semantics (a ``HashedKey`` *is* a tuple), so Memo dedup decisions, job
counts and plan choices are bit-identical with interning on or off —
only the constant factors change.

The table is bounded: once full, keys are still wrapped in
:class:`HashedKey` (hash caching keeps working) but no longer stored,
so a pathological workload cannot grow it without limit.

Optimization requests go one step further (:func:`intern_id`): every
context, plan and scheduler-goal probe is keyed by the request, so each
distinct request is mapped to a dense small integer whose hash and
equality are C-level.  Ids are process-local — they are assigned in
first-seen order and mean nothing in another interpreter — so objects
carrying one drop it from their pickle state.
"""

from __future__ import annotations

import threading
from typing import Hashable

#: Upper bound on distinct interned keys kept alive by the table.
MAX_INTERNED_KEYS = 1 << 17
#: Upper bound on distinct keys holding a dense integer id.
MAX_INTERNED_IDS = 1 << 14

_table: dict[tuple, "HashedKey"] = {}
_ids: dict[tuple, int] = {}
#: Serializes id assignment; a hit never takes it.
_ids_lock = threading.Lock()
_hits = 0
_misses = 0


class HashedKey(tuple):
    """A tuple whose hash is computed once at construction.

    Deep operator fingerprints are hashed on every Memo probe; caching
    the hash in the object makes repeat probes O(1) instead of O(size).
    """

    def __new__(cls, iterable=()):
        self = tuple.__new__(cls, iterable)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:  # type: ignore[override]
        return self._hash

    def __reduce__(self):
        # The cached hash is salted per process: unpickling rehashes.
        return (HashedKey, (tuple(self),))


class KeyCached:
    """Base for immutable objects that cache their interned key on
    themselves (operators, scalar expressions, property specs).

    A cached key is derived state: a copy whose fields differ must
    recompute it, and another process must re-intern it.  The pickle
    leaves out every attribute named in ``_UNPICKLED``; a subclass that
    caches more derived state names it there too.
    """

    _UNPICKLED: tuple[str, ...] = ("_cached_key",)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._UNPICKLED:
            state.pop(name, None)
        return state


def intern_key(key: tuple) -> HashedKey:
    """Return the canonical :class:`HashedKey` for ``key``.

    Structurally equal keys map to the same object, so later equality
    checks short-circuit on identity and dict probes reuse the cached
    hash.
    """
    global _hits, _misses
    canonical = _table.get(key)
    if canonical is not None:
        _hits += 1
        return canonical
    _misses += 1
    hashed = key if type(key) is HashedKey else HashedKey(key)
    if len(_table) < MAX_INTERNED_KEYS:
        _table[hashed] = hashed
    return hashed


def intern_id(key: tuple) -> Hashable:
    """Dense integer id of a structural key, assigned in first-seen order.

    Equal keys always get equal ids and distinct keys distinct ones.  An
    id, once handed out, is never reassigned (live objects hold them), so
    the table is capped rather than evicted: past the cap a new key *is*
    its own id — an interned :class:`HashedKey`, which never equals an
    int — and lookups stay correct at the old tuple-keyed speed.

    Sessions may be called from threads of one process, and reading the
    table's length and storing under it are separate steps, so a miss
    assigns under a lock and looks again first: two threads missing at
    once must neither share an id nor give one key two.
    """
    ident = _ids.get(key)
    if ident is None:
        with _ids_lock:
            ident = _ids.get(key)
            if ident is None:
                if len(_ids) >= MAX_INTERNED_IDS:
                    return intern_key(key)
                ident = _ids[key] = len(_ids)
    return ident


def intern_stats() -> dict[str, int]:
    """Process-wide interning counters (monotonic)."""
    return {"hits": _hits, "misses": _misses, "size": len(_table)}
