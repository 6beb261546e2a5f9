"""Sort order specifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.interning import KeyCached, intern_key
from repro.ops.scalar import ColRef


@dataclass(frozen=True)
class SortKey:
    """One sort key: a column id plus direction."""

    col_id: int
    ascending: bool = True

    def __repr__(self) -> str:
        return f"{self.col_id}{'' if self.ascending else ' DESC'}"


@dataclass(frozen=True)
class OrderSpec(KeyCached):
    """A (possibly empty) list of sort keys.

    A delivered order satisfies a required order if the requirement is a
    prefix of the delivery.  The empty spec is the 'Any' order requirement.
    """

    keys: tuple[SortKey, ...] = ()

    @staticmethod
    def of(cols: Sequence) -> "OrderSpec":
        """Build from ColRefs, (ColRef, asc) pairs, or SortKeys."""
        keys: list[SortKey] = []
        for item in cols:
            if isinstance(item, SortKey):
                keys.append(item)
            elif isinstance(item, ColRef):
                keys.append(SortKey(item.id))
            else:
                col, asc = item
                col_id = col if isinstance(col, int) else col.id
                keys.append(SortKey(col_id, asc))
        return OrderSpec(tuple(keys))

    def is_empty(self) -> bool:
        return not self.keys

    def satisfies(self, required: "OrderSpec") -> bool:
        if len(required.keys) > len(self.keys):
            return False
        return self.keys[: len(required.keys)] == required.keys

    def column_ids(self) -> tuple[int, ...]:
        return tuple(k.col_id for k in self.keys)

    def key(self) -> tuple:
        cached = getattr(self, "_cached_key", None)
        if cached is None:
            cached = intern_key(
                tuple((k.col_id, k.ascending) for k in self.keys)
            )
            object.__setattr__(self, "_cached_key", cached)
        return cached

    def remapped(self, mapping: dict[int, int]) -> "OrderSpec":
        return OrderSpec(
            tuple(
                SortKey(mapping.get(k.col_id, k.col_id), k.ascending)
                for k in self.keys
            )
        )

    def __repr__(self) -> str:
        if not self.keys:
            return "AnyOrder"
        return "<" + ", ".join(map(repr, self.keys)) + ">"


ANY_ORDER = OrderSpec()
