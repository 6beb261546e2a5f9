"""Memory accounting (the GPOS memory manager, Section 3).

Tracks approximate bytes held by optimizer data structures so the
optimization-time/memory experiment (Section 7.2.2: "average memory
footprint is around 200 MB") has a measurable analogue.
"""

from __future__ import annotations

import sys
from typing import Any


class MemoryTracker:
    """Accumulates allocation estimates per labelled pool."""

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
