"""Generic expression trees and the operator base class.

An :class:`Expression` is an operator with child expressions — the
in-memory form a parsed DXL query is transformed into before being
copied into the Memo (Section 4.1, Figure 4).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.ops.scalar import ColRef, ScalarExpr, ValueObject


class Operator(ValueObject):
    """Base class for logical and physical operators.

    Operators are immutable value objects; ``key()`` is the fingerprint
    used (together with child group ids) by the Memo's duplicate
    detection, a plain tuple built when called.
    """

    name = "Operator"
    is_logical = False
    is_physical = False
    #: Enforcer operators (Sort and the motions) are added to groups during
    #: optimization and are skipped by exploration/implementation jobs.
    is_enforcer = False
    arity: Optional[int] = None

    def key(self) -> tuple:
        raise NotImplementedError

    def derive_output_columns(
        self, child_outputs: Sequence[Sequence[ColRef]]
    ) -> list[ColRef]:
        """Output columns given the output columns of child groups."""
        raise NotImplementedError

    def scalar_exprs(self) -> list[ScalarExpr]:
        """Scalar expressions embedded in this operator (for used-column
        derivation and column remapping)."""
        return []

    def used_columns(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for expr in self.scalar_exprs():
            out |= expr.used_columns()
        return out

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "Operator":
        """Return a copy with embedded scalars remapped (identity default)."""
        return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Operator) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return self.name


class Expression:
    """An operator applied to child expressions."""

    def __init__(self, op: Operator, children: Sequence["Expression"] = ()):
        if op.arity is not None and len(children) != op.arity:
            raise ValueError(
                f"{op.name} takes {op.arity} children, got {len(children)}"
            )
        self.op = op
        self.children = list(children)
        self._output_cols: Optional[list[ColRef]] = None

    def output_columns(self) -> list[ColRef]:
        """Output columns of this subtree, derived once and cached.

        Normalization and translation re-ask for output columns at every
        level of the tree; without the cache each call re-walks the whole
        subtree.  A defensive copy is returned because several callers
        take ownership of the list (e.g. ``Group.output_cols``).
        """
        cols = self._output_cols
        if cols is None:
            cols = self._output_cols = self.op.derive_output_columns(
                [child.output_columns() for child in self.children]
            )
        return list(cols)

    def walk(self) -> Iterable["Expression"]:
        """Pre-order traversal."""
        yield self
        for child in self.children:
            yield from child.walk()

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "Expression":
        """Deep copy with all embedded scalars remapped."""
        return Expression(
            self.op.substitute(mapping),
            [child.substitute(mapping) for child in self.children],
        )

    def tree_string(self, indent: int = 0) -> str:
        lines = ["  " * indent + repr(self.op)]
        for child in self.children:
            lines.append(child.tree_string(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Expression({self.op!r}, {len(self.children)} children)"
