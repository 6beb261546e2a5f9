"""Logical operators.

Logical operators describe *what* a (sub)query computes; transformation
rules rewrite them into equivalent logical shapes (exploration) and into
physical implementations (implementation) — Section 4.1, steps 1 and 3.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, Sequence

from repro.catalog.schema import Table
from repro.ops.expression import Operator
from repro.ops.scalar import AggFunc, ColRef, ScalarExpr, WindowFunc


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT = "left"
    SEMI = "semi"
    ANTI = "anti"

    def output_is_left_only(self) -> bool:
        return self in (JoinKind.SEMI, JoinKind.ANTI)


class ApplyKind(enum.Enum):
    """Flavors of the correlated Apply operator produced by subquery
    unnesting (Section 7.2.2, Correlated Subqueries)."""

    SEMI = "semi"      # EXISTS / IN: keep outer rows with a matching inner row
    ANTI = "anti"      # NOT EXISTS / NOT IN
    SCALAR = "scalar"  # scalar subquery: attach the inner's (<=1) row's cols

    def to_join_kind(self) -> JoinKind:
        if self is ApplyKind.SEMI:
            return JoinKind.SEMI
        if self is ApplyKind.ANTI:
            return JoinKind.ANTI
        return JoinKind.LEFT


class AggStage(enum.Enum):
    """Aggregation stage for multi-phase (MPP) aggregation."""

    GLOBAL = "global"    # single-phase, complete aggregation
    PARTIAL = "partial"  # local pre-aggregation on each segment
    FINAL = "final"      # combines partial results


class LogicalGet(Operator):
    """Scan of a base table, binding table columns to fresh ColRefs.

    ``partitions`` restricts a range-partitioned table to the listed
    partition indexes (None = all); static partition elimination narrows
    it during preprocessing.
    """

    name = "Get"
    is_logical = True
    arity = 0

    def __init__(
        self,
        table: Table,
        columns: Sequence[ColRef],
        alias: Optional[str] = None,
        partitions: Optional[tuple[int, ...]] = None,
        dpe=None,
    ):
        self.table = table
        self.columns = tuple(columns)
        self.alias = alias or table.name
        self.partitions = partitions
        #: Optional repro.ops.physical.DPEHint for dynamic partition
        #: elimination, attached during preprocessing (Section 7.2.2).
        self.dpe = dpe

    def key(self) -> tuple:
        return (
            "Get",
            self.table.name,
            tuple(c.id for c in self.columns),
            self.partitions,
            self.dpe.selector_col_id if self.dpe is not None else None,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.columns)

    def __repr__(self) -> str:
        parts = ""
        if self.partitions is not None:
            parts = f" parts={list(self.partitions)}"
        return f"Get({self.alias}{parts})"


class LogicalSelect(Operator):
    """Filter rows by a predicate."""

    name = "Select"
    is_logical = True
    arity = 1

    def __init__(self, predicate: ScalarExpr):
        self.predicate = predicate

    def key(self) -> tuple:
        return ("Select", self.predicate.key())

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def scalar_exprs(self) -> list[ScalarExpr]:
        return [self.predicate]

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "LogicalSelect":
        return LogicalSelect(self.predicate.substitute(mapping))

    def __repr__(self) -> str:
        return f"Select({self.predicate!r})"


class LogicalProject(Operator):
    """Compute new columns; output = child columns + computed columns."""

    name = "Project"
    is_logical = True
    arity = 1

    def __init__(self, projections: Sequence[tuple[ScalarExpr, ColRef]]):
        self.projections = tuple(projections)

    def key(self) -> tuple:
        return (
            "Project",
            tuple((e.key(), c.id) for e, c in self.projections),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0]) + [c for _e, c in self.projections]

    def scalar_exprs(self) -> list[ScalarExpr]:
        return [e for e, _c in self.projections]

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "LogicalProject":
        return LogicalProject(
            [(e.substitute(mapping), c) for e, c in self.projections]
        )

    def __repr__(self) -> str:
        cols = ", ".join(f"{c}={e!r}" for e, c in self.projections)
        return f"Project({cols})"


class LogicalJoin(Operator):
    """Binary join (inner / left outer / semi / anti-semi)."""

    name = "Join"
    is_logical = True
    arity = 2

    def __init__(self, kind: JoinKind, condition: Optional[ScalarExpr]):
        self.kind = kind
        self.condition = condition

    def key(self) -> tuple:
        return (
            "Join",
            self.kind.value,
            self.condition.key() if self.condition is not None else None,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind.output_is_left_only():
            return list(child_outputs[0])
        return list(child_outputs[0]) + list(child_outputs[1])

    def scalar_exprs(self) -> list[ScalarExpr]:
        return [self.condition] if self.condition is not None else []

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "LogicalJoin":
        cond = self.condition.substitute(mapping) if self.condition else None
        return LogicalJoin(self.kind, cond)

    def __repr__(self) -> str:
        return f"{self.kind.value.capitalize()}Join({self.condition!r})"


class LogicalApply(Operator):
    """Correlated apply: evaluate the inner child per outer row.

    The correlation lives *inside* the inner subtree as predicates that
    reference outer ColRefs (tracked in ``outer_refs``).  Orca's
    decorrelation rules turn Apply into Join (Section 7.2.2); the legacy
    Planner implements it directly as a correlated nested-loops join.
    """

    name = "Apply"
    is_logical = True
    arity = 2

    def __init__(self, kind: ApplyKind, outer_refs: frozenset[int]):
        self.kind = kind
        self.outer_refs = outer_refs

    def key(self) -> tuple:
        return ("Apply", self.kind.value, tuple(sorted(self.outer_refs)))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        if self.kind is ApplyKind.SCALAR:
            return list(child_outputs[0]) + list(child_outputs[1])
        return list(child_outputs[0])

    def __repr__(self) -> str:
        return f"{self.kind.value.capitalize()}Apply(corr={sorted(self.outer_refs)})"


class LogicalGbAgg(Operator):
    """Group-by aggregation.

    ``aggs`` pairs each :class:`AggFunc` with the ColRef it produces.
    ``stage`` supports the split (two-phase) aggregation transformation for
    MPP execution.
    """

    name = "GbAgg"
    is_logical = True
    arity = 1

    def __init__(
        self,
        group_cols: Sequence[ColRef],
        aggs: Sequence[tuple[AggFunc, ColRef]],
        stage: AggStage = AggStage.GLOBAL,
    ):
        self.group_cols = tuple(group_cols)
        self.aggs = tuple(aggs)
        self.stage = stage

    def key(self) -> tuple:
        return (
            "GbAgg",
            self.stage.value,
            tuple(c.id for c in self.group_cols),
            tuple((a.key(), c.id) for a, c in self.aggs),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.group_cols) + [c for _a, c in self.aggs]

    def scalar_exprs(self) -> list[ScalarExpr]:
        return [a for a, _c in self.aggs]

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "LogicalGbAgg":
        from repro.ops.scalar import ColRefExpr

        def remap(ref: ColRef) -> ColRef:
            repl = mapping.get(ref.id)
            if isinstance(repl, ColRefExpr):
                return repl.ref
            return ref

        return LogicalGbAgg(
            [remap(c) for c in self.group_cols],
            [(a.substitute(mapping), c) for a, c in self.aggs],
            self.stage,
        )

    def __repr__(self) -> str:
        groups = ", ".join(str(c) for c in self.group_cols)
        aggs = ", ".join(f"{c}={a!r}" for a, c in self.aggs)
        stage = "" if self.stage is AggStage.GLOBAL else f" {self.stage.value}"
        return f"GbAgg{stage}([{groups}] {aggs})"


class LogicalLimit(Operator):
    """ORDER BY ... LIMIT n OFFSET m."""

    name = "Limit"
    is_logical = True
    arity = 1

    def __init__(
        self,
        sort_keys: Sequence[tuple[ColRef, bool]],
        limit: Optional[int],
        offset: int = 0,
    ):
        self.sort_keys = tuple(sort_keys)
        self.limit = limit
        self.offset = offset

    def key(self) -> tuple:
        return (
            "Limit",
            tuple((c.id, asc) for c, asc in self.sort_keys),
            self.limit,
            self.offset,
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def __repr__(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class LogicalUnionAll(Operator):
    """Bag union of n children; maps each child's columns onto shared
    output columns.  UNION DISTINCT / INTERSECT / EXCEPT are normalized
    into UnionAll + GbAgg / joins by the translator."""

    name = "UnionAll"
    is_logical = True
    arity = None

    def __init__(
        self,
        output_cols: Sequence[ColRef],
        input_cols: Sequence[Sequence[ColRef]],
    ):
        self.output_cols = tuple(output_cols)
        self.input_cols = tuple(tuple(cols) for cols in input_cols)

    def key(self) -> tuple:
        return (
            "UnionAll",
            tuple(c.id for c in self.output_cols),
            tuple(tuple(c.id for c in cols) for cols in self.input_cols),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.output_cols)

    def __repr__(self) -> str:
        return f"UnionAll({len(self.input_cols)} inputs)"


class LogicalWindow(Operator):
    """Window function computation; output = child cols + window cols."""

    name = "Window"
    is_logical = True
    arity = 1

    def __init__(self, funcs: Sequence[tuple[WindowFunc, ColRef]]):
        self.funcs = tuple(funcs)

    def key(self) -> tuple:
        return ("Window", tuple((f.key(), c.id) for f, c in self.funcs))

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0]) + [c for _f, c in self.funcs]

    def scalar_exprs(self) -> list[ScalarExpr]:
        return [f for f, _c in self.funcs]

    def substitute(self, mapping: Mapping[int, ScalarExpr]) -> "LogicalWindow":
        return LogicalWindow(
            [(f.substitute(mapping), c) for f, c in self.funcs]
        )

    def __repr__(self) -> str:
        return f"Window({', '.join(f.name for f, _c in self.funcs)})"


class LogicalCTEAnchor(Operator):
    """Marks that a shared CTE is in scope over its single child.

    The producer-side tree is registered with the optimization session's
    CTE registry; plan extraction assembles a Sequence(Producer, main)
    around the anchor (Section 7.2.2, Common Expressions)."""

    name = "CTEAnchor"
    is_logical = True
    arity = 1

    def __init__(self, cte_id: int):
        self.cte_id = cte_id

    def key(self) -> tuple:
        return ("CTEAnchor", self.cte_id)

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(child_outputs[0])

    def __repr__(self) -> str:
        return f"CTEAnchor({self.cte_id})"


class LogicalCTEConsumer(Operator):
    """Reads the materialized output of a CTE producer.

    ``output_cols`` are this consumer's fresh ColRefs, positionally mapped
    onto ``producer_cols``."""

    name = "CTEConsumer"
    is_logical = True
    arity = 0

    def __init__(
        self,
        cte_id: int,
        output_cols: Sequence[ColRef],
        producer_cols: Sequence[ColRef],
    ):
        self.cte_id = cte_id
        self.output_cols = tuple(output_cols)
        self.producer_cols = tuple(producer_cols)

    def key(self) -> tuple:
        return (
            "CTEConsumer",
            self.cte_id,
            tuple(c.id for c in self.output_cols),
        )

    def derive_output_columns(self, child_outputs) -> list[ColRef]:
        return list(self.output_cols)

    def __repr__(self) -> str:
        return f"CTEConsumer({self.cte_id})"
