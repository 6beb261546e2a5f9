"""Required and derived property bundles.

An optimization request (Section 4.1, e.g. ``req. #1: {Singleton, <T1.a>}``)
is a :class:`RequiredProps` — a distribution spec plus an order spec.
:class:`DerivedProps` is what a concrete physical plan delivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.interning import intern_id
from repro.props.distribution import ANY_DIST, DistributionSpec
from repro.props.order import ANY_ORDER, OrderSpec


class _Interned:
    """Gives a frozen ``(dist, order)`` dataclass a process-local ``id``.

    The id comes from :func:`repro.interning.intern_id`: equal bundles
    share it, so the search keys group contexts, per-expression plans,
    scheduler goals and delivered-property memos by it instead of
    re-hashing the structural key on every probe.
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
