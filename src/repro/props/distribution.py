"""Data distribution specifications (Section 2.1).

During query execution, data can be distributed to segments by hash
(``HashedDist``), replicated in full to every node (``ReplicatedDist``),
gathered to a single host (``SingletonDist``), or spread without a known
key (``RandomDist``).  ``AnyDist`` is the unconstrained requirement.

``delivered.satisfies(required)`` implements the satisfaction lattice used
when matching child plans against optimization requests (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass


class DistributionSpec:
    """Base class for distribution specs."""

    def satisfies(self, required: "DistributionSpec") -> bool:
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def is_partitioned(self) -> bool:
        """True if rows are spread over segments (hashed or random)."""
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DistributionSpec) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class AnyDist(DistributionSpec):
    """No requirement; every delivered distribution satisfies it."""

    def satisfies(self, required: DistributionSpec) -> bool:
        # 'Any' is never *delivered*; as a requirement it accepts anything.
        return isinstance(required, AnyDist)

    def key(self) -> tuple:
        return ("any",)

    def __repr__(self) -> str:
        return "Any"


class SingletonDist(DistributionSpec):
    """All rows on a single host (usually the master)."""

    def satisfies(self, required: DistributionSpec) -> bool:
        return isinstance(required, (AnyDist, SingletonDist))

    def key(self) -> tuple:
        return ("singleton",)

    def __repr__(self) -> str:
        return "Singleton"


class ReplicatedDist(DistributionSpec):
    """A full copy of the data is available on every node."""

    def satisfies(self, required: DistributionSpec) -> bool:
        # A replicated relation can serve any per-segment requirement except
        # a strict singleton (it would duplicate rows in the result).
        return isinstance(required, (AnyDist, ReplicatedDist))

    def key(self) -> tuple:
        return ("replicated",)

    def __repr__(self) -> str:
        return "Replicated"


class RandomDist(DistributionSpec):
    """Rows spread across segments with no colocation guarantee."""

    def satisfies(self, required: DistributionSpec) -> bool:
        return isinstance(required, (AnyDist, RandomDist))

    def key(self) -> tuple:
        return ("random",)

    def is_partitioned(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "Random"


@dataclass(frozen=True)
class HashedDist(DistributionSpec):
    """Rows hash-distributed on a tuple of columns (by ColRef id)."""

    columns: tuple[int, ...]

    def satisfies(self, required: DistributionSpec) -> bool:
        if isinstance(required, AnyDist):
            return True
        if isinstance(required, RandomDist):
            # Hash-partitioned data is trivially "spread over segments".
            return True
        if isinstance(required, HashedDist):
            return self.columns == required.columns
        return False

    def key(self) -> tuple:
        return ("hashed", self.columns)

    def is_partitioned(self) -> bool:
        return True

    @staticmethod
    def on(cols) -> "HashedDist":
        """Build from an iterable of ColRefs or ids."""
        ids = tuple(c if isinstance(c, int) else c.id for c in cols)
        return HashedDist(ids)

    def remapped(self, mapping: dict[int, int]) -> "HashedDist":
        """Rename columns (used by CTE consumers and set operations)."""
        return HashedDist(tuple(mapping.get(c, c) for c in self.columns))

    def __repr__(self) -> str:
        return f"Hashed({', '.join(map(str, self.columns))})"


ANY_DIST = AnyDist()
SINGLETON = SingletonDist()
REPLICATED = ReplicatedDist()
RANDOM = RandomDist()
