"""Memory accounting (the GPOS memory manager, Section 3).

GPOS charges memory to a pool when it is allocated (Sections 3 and
4.2).  Here every :class:`repro.memo.memo.Memo` owns a
:class:`MemoryTracker`, and the memo charges it where it creates an
object: a group, a group expression (enforcers included), an
optimization context, a new plan entry, a statistics object (per
column) and a new derivation-cache entry.  Each charge is one of the
per-class constants below, so a memo's footprint is an O(1) read that
is the same on every run of a statement.  ``SearchStats.memory_bytes``
(the analogue of Section 7.2.2's "average memory footprint is around
200 MB") and the governor's quota probe both read it.

The constants were calibrated once against :func:`deep_sizeof`, a
recursive walk of the memo's object graph: each is the mean number of
walked bytes owned by one object of its class over the TPC-DS query
corpus.  :func:`deep_sizeof` stays as the reference the accountant is
checked against (``tests/test_memory_accounting.py``), not as a probe.
"""

from __future__ import annotations

import sys
from typing import Any

#: Bytes charged per object the memo allocates (see the module docstring).
#: A group includes its share of the memo's own tables; a group
#: expression its operator (with the child-request alternatives a
#: physical operator builds once), applied-rule set and dedup entries; a
#: context its request; a plan entry its child requests and delivered
#: properties.
GROUP_BYTES = 880
GEXPR_BYTES = 1190
CONTEXT_BYTES = 380
PLAN_BYTES = 600
STATS_BYTES = 210
STATS_COLUMN_BYTES = 500
DELIVERED_CACHE_ENTRY_BYTES = 220


class MemoryTracker:
    """Accumulates allocation charges per labelled pool."""

    def __init__(self) -> None:
        self._pools: dict[str, int] = {}

    def charge(self, pool: str, amount_bytes: int) -> None:
        self._pools[pool] = self._pools.get(pool, 0) + amount_bytes

    def charge_object(self, pool: str, obj: Any) -> None:
        self.charge(pool, deep_sizeof(obj))

    def total(self) -> int:
        return sum(self._pools.values())

    def pools(self) -> dict[str, int]:
        return dict(self._pools)

    def reset(self) -> None:
        self._pools.clear()


#: type -> names of every ``__slots__`` entry along its MRO.
_SLOT_NAMES: dict[type, tuple[str, ...]] = {}


def _find_slot_names(cls: type) -> tuple[str, ...]:
    """Fill :data:`_SLOT_NAMES` for a type the walk has not met yet."""
    found = []
    for klass in cls.__mro__:
        slots = vars(klass).get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name in ("__dict__", "__weakref__"):
                continue
            if name.startswith("__") and not name.endswith("__"):
                name = f"_{klass.__name__.lstrip('_')}{name}"
            found.append(name)
    names = _SLOT_NAMES[cls] = tuple(found)
    return names


def deep_sizeof(obj: Any, _seen: set | None = None, _depth: int = 0) -> int:
    """Approximate recursive size of an object graph in bytes.

    The reference the memo's allocation charges are calibrated and
    tested against; too slow to run per statement.

    Iterative depth-first traversal in the same visit order as the
    natural recursion (children pushed in reverse), so the dedup-by-id
    and depth-cutoff behaviour — and therefore the reported size — match
    the recursive formulation exactly without per-node call overhead.

    Instances are followed through ``__dict__`` and through every
    ``__slots__`` entry along their MRO, so giving a class slots cannot
    drop what it holds out of the total.  Ids already in ``_seen`` are
    not walked: callers pass the ids of objects that are reachable from
    ``obj`` but are not part of its footprint.
    """
    seen = _seen if _seen is not None else set()
    getsizeof = sys.getsizeof
    known_slots = _SLOT_NAMES
    total = 0
    stack = [(obj, _depth)]
    while stack:
        o, depth = stack.pop()
        oid = id(o)
        if oid in seen or depth > 12:
            continue
        seen.add(oid)
        total += getsizeof(o, 64)
        if isinstance(o, dict):
            children = []
            for k, v in o.items():
                children.append(k)
                children.append(v)
        elif isinstance(o, (list, tuple, set, frozenset)):
            children = list(o)
        else:
            children = [vars(o)] if hasattr(o, "__dict__") else []
            names = known_slots.get(type(o))
            if names is None:
                names = _find_slot_names(type(o))
            for name in names:
                try:
                    children.append(getattr(o, name))
                except AttributeError:  # slot never assigned
                    pass
            if not children:
                continue
        depth += 1
        for child in reversed(children):
            stack.append((child, depth))
    return total
