"""Required and derived property bundles.

An optimization request (Section 4.1, e.g. ``req. #1: {Singleton, <T1.a>}``)
is a :class:`RequiredProps` — a distribution spec plus an order spec.
:class:`DerivedProps` is what a concrete physical plan delivers.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Hashable

from repro.props.distribution import ANY_DIST, DistributionSpec
from repro.props.order import ANY_ORDER, OrderSpec

#: Upper bound on distinct keys holding a dense integer id.
MAX_INTERNED_IDS = 1 << 14

_ids: dict[tuple, int] = {}
#: Serializes id assignment; a hit never takes it.
_ids_lock = threading.Lock()


def intern_id(key: tuple) -> Hashable:
    """Dense integer id of a structural key, assigned in first-seen order.

    Every context, plan and scheduler-goal probe is keyed by a request,
    so each distinct request maps to a small integer whose hash and
    equality are C-level.  Equal keys always get equal ids and distinct
    keys distinct ones.  An id, once handed out, is never reassigned
    (live objects hold them), so the table is capped rather than
    evicted: past the cap a new key *is* its own id — a tuple, which
    never equals an int — and lookups stay correct at tuple-keyed speed.
    Ids are process-local: they mean nothing in another interpreter.

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
                    return key
                ident = _ids[key] = len(_ids)
    return ident


class _Interned:
    """Gives a frozen ``(dist, order)`` dataclass a process-local ``id``.

    The id comes from :func:`intern_id`: equal bundles share it, so the
    search keys group contexts, per-expression plans, scheduler goals
    and delivered-property memos by it instead of re-hashing the
    structural key on every probe.
    """

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", intern_id(self.key()))

    def __reduce__(self):
        # The id means nothing in another process: rebuild through
        # __init__ so the receiving interpreter assigns its own.
        return (type(self), (self.dist, self.order))

    def key(self) -> tuple:
        """Structural fingerprint (what ``id`` is interned from)."""
        return (self.dist.key(), self.order.key())


@dataclass(frozen=True)
class RequiredProps(_Interned):
    """An optimization request: required distribution and sort order."""

    dist: DistributionSpec = ANY_DIST
    order: OrderSpec = ANY_ORDER
    id: Hashable = field(init=False, repr=False, compare=False)

    def __repr__(self) -> str:
        return f"{{{self.dist!r}, {self.order!r}}}"


ANY_PROPS = RequiredProps()


@dataclass(frozen=True)
class DerivedProps(_Interned):
    """Physical properties delivered by a concrete plan."""

    dist: DistributionSpec
    order: OrderSpec = ANY_ORDER
    id: Hashable = field(init=False, repr=False, compare=False)

    def satisfies(self, required: RequiredProps) -> bool:
        return self.dist.satisfies(required.dist) and self.order.satisfies(
            required.order
        )

    def __repr__(self) -> str:
        return f"[{self.dist!r}, {self.order!r}]"
