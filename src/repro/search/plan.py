"""Physical plan trees extracted from the Memo."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ops.expression import Operator
from repro.ops.scalar import ColRef
from repro.props.required import DerivedProps


@dataclass
class PlanNode:
    """One node of an executable physical plan.

    **A PlanNode tree is never mutated after extraction**: not its
    fields, not its operators, not their scalar expressions.  The plan
    cache stores the extracted tree and hands that same tree to every
    later hit, in this session and (pickled once) in every fleet
    worker, with no defensive copy; a re-bind builds new nodes along
    the paths to the changed constants and shares the rest.  The only
    writes allowed are derived caches that are rebuilt on demand and
    left out of the pickle: ``_fused_cache`` / ``_unfused_cache`` (the
    compiled chains of each execution mode) on the root, no attribute
    on any other node, the child-request ``_alternatives`` on
    operators, ``_row_cache`` on scalar expressions.
    ``tests/test_plan_immutability.py`` holds every executor, EXPLAIN
    ANALYZE and the feedback ingest to this (the pickle of a cached
    tree is byte-equal before and after, and byte-equal to the pickle
    of the same plan extracted in a fresh process).
    """

    op: Operator
    children: list["PlanNode"] = field(default_factory=list)
    output_cols: list[ColRef] = field(default_factory=list)
    rows_estimate: float = 0.0
    cost: float = 0.0
    delivered: Optional[DerivedProps] = None
    #: Logical shape of the Memo group this node was extracted from
    #: (see :func:`repro.feedback.group_shape`); annotated only when
    #: cardinality feedback is enabled, None otherwise.
    shape: Optional[tuple] = None

    def walk(self) -> Iterable["PlanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def __getstate__(self):
        # The executor caches compiled pipelines (generated functions +
        # closures) on the plan root for as long as the tree lives, one
        # cache per execution mode; like ScalarExpr's compiled-closure
        # caches, they are derived state and are rebuilt on demand after
        # transport.
        state = dict(self.__dict__)
        state.pop("_fused_cache", None)
        state.pop("_unfused_cache", None)
        return state

    def explain(self, indent: int = 0) -> str:
        """Pretty tree with cost/row annotations, like EXPLAIN output."""
        pad = "  " * indent
        props = f" {self.delivered!r}" if self.delivered is not None else ""
        line = (
            f"{pad}-> {self.op!r}  (rows={self.rows_estimate:.0f} "
            f"cost={self.cost:.1f}){props}"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PlanNode({self.op!r}, cost={self.cost:.1f})"
