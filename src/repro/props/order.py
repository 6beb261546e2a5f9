"""Sort order specifications."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SortKey:
    """One sort key: a column id plus direction."""

    col_id: int
    ascending: bool = True

    def __repr__(self) -> str:
        return f"{self.col_id}{'' if self.ascending else ' DESC'}"


@dataclass(frozen=True)
class OrderSpec:
    """A (possibly empty) list of sort keys.

    A delivered order satisfies a required order if the requirement is a
    prefix of the delivery.  The empty spec is the 'Any' order requirement.
    """

    keys: tuple[SortKey, ...] = ()

    def is_empty(self) -> bool:
        return not self.keys

    def satisfies(self, required: "OrderSpec") -> bool:
        if len(required.keys) > len(self.keys):
            return False
        return self.keys[: len(required.keys)] == required.keys

    def key(self) -> tuple:
        return tuple((k.col_id, k.ascending) for k in self.keys)

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
