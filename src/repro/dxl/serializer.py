"""Serialization of queries, plans and metadata into DXL (XML)."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import date
from typing import Optional, Sequence

from repro.catalog.database import Database
from repro.catalog.schema import DistributionPolicy
from repro.catalog.statistics import TableStats
from repro.errors import DXLError
from repro.ops import logical as lg
from repro.ops.expression import Expression
from repro.ops.scalar import (
    AggFunc,
    Arith,
    BoolExpr,
    CaseExpr,
    ColRef,
    ColRefExpr,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    ScalarExpr,
    WindowFunc,
)
from repro.search.plan import PlanNode

NAMESPACE = "http://greenplum.com/dxl/v1"


def to_string(element: ET.Element) -> str:
    ET.indent(element)
    return ET.tostring(element, encoding="unicode")


def mdid(db_system: str, name: str, version: int = 1) -> str:
    """A metadata id: system identifier, object, version (Section 4.1)."""
    return f"0.{db_system}.{name}.{version}"


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

def encode_value(elem: ET.Element, value) -> None:
    if value is None:
        elem.set("IsNull", "true")
    elif isinstance(value, bool):
        elem.set("ValueType", "bool")
        elem.set("Value", "true" if value else "false")
    elif isinstance(value, int):
        elem.set("ValueType", "int")
        elem.set("Value", str(value))
    elif isinstance(value, float):
        elem.set("ValueType", "float")
        elem.set("Value", repr(value))
    elif isinstance(value, date):
        elem.set("ValueType", "date")
        elem.set("Value", value.isoformat())
    elif isinstance(value, str):
        elem.set("ValueType", "text")
        elem.set("Value", value)
    else:
        raise DXLError(f"cannot serialize value {value!r}")


def _colref_elem(parent: ET.Element, tag: str, ref: ColRef) -> ET.Element:
    elem = ET.SubElement(parent, tag)
    elem.set("ColId", str(ref.id))
    elem.set("Name", ref.name)
    elem.set("TypeName", ref.dtype.name)
    return elem


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------

def serialize_scalar(parent: ET.Element, expr: ScalarExpr) -> None:
    if isinstance(expr, ColRefExpr):
        _colref_elem(parent, "Ident", expr.ref)
    elif isinstance(expr, Literal):
        elem = ET.SubElement(parent, "Const")
        encode_value(elem, expr.value)
        elem.set("TypeName", expr.dtype.name)
    elif isinstance(expr, Comparison):
        elem = ET.SubElement(parent, "Comparison")
        elem.set("Operator", expr.op)
        serialize_scalar(elem, expr.left)
        serialize_scalar(elem, expr.right)
    elif isinstance(expr, BoolExpr):
        elem = ET.SubElement(parent, "BoolExpr")
        elem.set("Kind", expr.op)
        for child in expr.children:
            serialize_scalar(elem, child)
    elif isinstance(expr, Arith):
        elem = ET.SubElement(parent, "Arith")
        elem.set("Operator", expr.op)
        serialize_scalar(elem, expr.left)
        serialize_scalar(elem, expr.right)
    elif isinstance(expr, IsNull):
        elem = ET.SubElement(parent, "IsNull")
        elem.set("Negated", str(expr.negated).lower())
        serialize_scalar(elem, expr.arg)
    elif isinstance(expr, InList):
        elem = ET.SubElement(parent, "InList")
        elem.set("Negated", str(expr.negated).lower())
        serialize_scalar(elem, expr.arg)
        for value in expr.values:
            v = ET.SubElement(elem, "Value")
            encode_value(v, value)
    elif isinstance(expr, LikeExpr):
        elem = ET.SubElement(parent, "Like")
        elem.set("Negated", str(expr.negated).lower())
        elem.set("Pattern", expr.pattern)
        serialize_scalar(elem, expr.arg)
    elif isinstance(expr, CaseExpr):
        elem = ET.SubElement(parent, "Case")
        for cond, result in expr.whens:
            when = ET.SubElement(elem, "When")
            serialize_scalar(when, cond)
            serialize_scalar(when, result)
        else_ = ET.SubElement(elem, "Else")
        serialize_scalar(else_, expr.else_)
    elif isinstance(expr, AggFunc):
        elem = ET.SubElement(parent, "AggFunc")
        elem.set("Name", expr.name)
        elem.set("Distinct", str(expr.distinct).lower())
        if expr.arg is not None:
            serialize_scalar(elem, expr.arg)
    elif isinstance(expr, WindowFunc):
        elem = ET.SubElement(parent, "WindowFunc")
        elem.set("Name", expr.name)
        partition = ET.SubElement(elem, "PartitionBy")
        for ref in expr.partition_by:
            _colref_elem(partition, "Ident", ref)
        order = ET.SubElement(elem, "OrderBy")
        for ref, asc in expr.order_by:
            key = _colref_elem(order, "SortKey", ref)
            key.set("Ascending", str(asc).lower())
        if expr.arg is not None:
            arg = ET.SubElement(elem, "Arg")
            serialize_scalar(arg, expr.arg)
    else:
        raise DXLError(f"cannot serialize scalar {expr!r}")


# ----------------------------------------------------------------------
# Logical operators
# ----------------------------------------------------------------------

def serialize_logical(parent: ET.Element, expr: Expression, system: str) -> None:
    op = expr.op
    if isinstance(op, lg.LogicalGet):
        elem = ET.SubElement(parent, "LogicalGet")
        desc = ET.SubElement(elem, "TableDescriptor")
        desc.set("Mdid", mdid(system, op.table.name))
        desc.set("Name", op.table.name)
        desc.set("Alias", op.alias)
        if op.partitions is not None:
            desc.set("Partitions", ",".join(map(str, op.partitions)))
        columns = ET.SubElement(desc, "Columns")
        for ref in op.columns:
            _colref_elem(columns, "Ident", ref)
        return
    if isinstance(op, lg.LogicalSelect):
        elem = ET.SubElement(parent, "LogicalSelect")
        pred = ET.SubElement(elem, "Predicate")
        serialize_scalar(pred, op.predicate)
    elif isinstance(op, lg.LogicalProject):
        elem = ET.SubElement(parent, "LogicalProject")
        for scalar, ref in op.projections:
            proj = _colref_elem(elem, "ProjElem", ref)
            serialize_scalar(proj, scalar)
    elif isinstance(op, lg.LogicalJoin):
        elem = ET.SubElement(parent, "LogicalJoin")
        elem.set("JoinType", op.kind.value)
        if op.condition is not None:
            cond = ET.SubElement(elem, "JoinCondition")
            serialize_scalar(cond, op.condition)
    elif isinstance(op, lg.LogicalApply):
        elem = ET.SubElement(parent, "LogicalApply")
        elem.set("Kind", op.kind.value)
        elem.set("OuterRefs", ",".join(map(str, sorted(op.outer_refs))))
    elif isinstance(op, lg.LogicalGbAgg):
        elem = ET.SubElement(parent, "LogicalGbAgg")
        elem.set("Stage", op.stage.value)
        groups = ET.SubElement(elem, "GroupingColumns")
        for ref in op.group_cols:
            _colref_elem(groups, "Ident", ref)
        for agg, ref in op.aggs:
            proj = _colref_elem(elem, "AggElem", ref)
            serialize_scalar(proj, agg)
    elif isinstance(op, lg.LogicalLimit):
        elem = ET.SubElement(parent, "LogicalLimit")
        if op.limit is not None:
            elem.set("Count", str(op.limit))
        elem.set("Offset", str(op.offset))
        sorting = ET.SubElement(elem, "SortingColumnList")
        for ref, asc in op.sort_keys:
            key = _colref_elem(sorting, "SortingColumn", ref)
            key.set("Ascending", str(asc).lower())
    elif isinstance(op, lg.LogicalUnionAll):
        elem = ET.SubElement(parent, "LogicalUnionAll")
        out = ET.SubElement(elem, "OutputColumns")
        for ref in op.output_cols:
            _colref_elem(out, "Ident", ref)
        for cols in op.input_cols:
            inp = ET.SubElement(elem, "InputColumns")
            for ref in cols:
                _colref_elem(inp, "Ident", ref)
    elif isinstance(op, lg.LogicalWindow):
        elem = ET.SubElement(parent, "LogicalWindow")
        for func, ref in op.funcs:
            proj = _colref_elem(elem, "WindowElem", ref)
            serialize_scalar(proj, func)
    elif isinstance(op, lg.LogicalCTEAnchor):
        elem = ET.SubElement(parent, "LogicalCTEAnchor")
        elem.set("CTEId", str(op.cte_id))
    elif isinstance(op, lg.LogicalCTEConsumer):
        elem = ET.SubElement(parent, "LogicalCTEConsumer")
        elem.set("CTEId", str(op.cte_id))
        out = ET.SubElement(elem, "OutputColumns")
        for ref in op.output_cols:
            _colref_elem(out, "Ident", ref)
        prod = ET.SubElement(elem, "ProducerColumns")
        for ref in op.producer_cols:
            _colref_elem(prod, "Ident", ref)
        return
    else:
        raise DXLError(f"cannot serialize logical operator {op!r}")
    for child in expr.children:
        serialize_logical(elem, child, system)


def serialize_query(
    tree: Expression,
    output_cols: Sequence[ColRef],
    required_sort: Sequence[tuple[ColRef, bool]] = (),
    system: str = "GPDB",
    cte_producers: Sequence[tuple[int, Expression, Sequence[ColRef]]] = (),
) -> ET.Element:
    """Serialize a logical query into a DXL Query message (Listing 1)."""
    root = ET.Element("DXLMessage")
    root.set("xmlns:dxl", NAMESPACE)
    query = ET.SubElement(root, "Query")
    out = ET.SubElement(query, "OutputColumns")
    for ref in output_cols:
        _colref_elem(out, "Ident", ref)
    sorting = ET.SubElement(query, "SortingColumnList")
    for ref, asc in required_sort:
        key = _colref_elem(sorting, "SortingColumn", ref)
        key.set("Ascending", str(asc).lower())
    dist = ET.SubElement(query, "Distribution")
    dist.set("Type", "Singleton")
    for cte_id, producer_tree, producer_cols in cte_producers:
        producer = ET.SubElement(query, "CTEProducerDef")
        producer.set("CTEId", str(cte_id))
        cols = ET.SubElement(producer, "OutputColumns")
        for ref in producer_cols:
            _colref_elem(cols, "Ident", ref)
        serialize_logical(producer, producer_tree, system)
    serialize_logical(query, tree, system)
    return root


# ----------------------------------------------------------------------
# Physical plans
# ----------------------------------------------------------------------

def serialize_plan(plan: PlanNode, system: str = "GPDB") -> ET.Element:
    """Serialize a physical plan into a DXL Plan message."""
    root = ET.Element("DXLMessage")
    root.set("xmlns:dxl", NAMESPACE)
    plan_elem = ET.SubElement(root, "Plan")
    _serialize_plan_node(plan_elem, plan)
    return root


def _serialize_plan_node(parent: ET.Element, node: PlanNode) -> None:
    elem = ET.SubElement(parent, "PhysicalOp")
    elem.set("Name", node.op.name)
    elem.set("Detail", repr(node.op))
    elem.set("Cost", f"{node.cost:.4f}")
    elem.set("RowsEstimate", f"{node.rows_estimate:.2f}")
    if node.delivered is not None:
        elem.set("Delivered", repr(node.delivered))
    cols = ET.SubElement(elem, "OutputColumns")
    for ref in node.output_cols:
        _colref_elem(cols, "Ident", ref)
    for child in node.children:
        _serialize_plan_node(elem, child)


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------

def serialize_metadata(
    db: Database, table_names: Optional[Sequence[str]] = None
) -> ET.Element:
    """Serialize catalog metadata (relations + statistics) into DXL.

    :func:`repro.dxl.parse_metadata` reads it back as a rowless catalog
    for offline optimization, and AMPERe harvests it into a minimal dump
    (Sections 5-6).
    """
    root = ET.Element("Metadata")
    root.set("SystemIds", f"0.{db.system_id}")
    names = table_names if table_names is not None else [
        t.name for t in db.tables()
    ]
    for name in names:
        table = db.table(name)
        rel = ET.SubElement(root, "Relation")
        rel.set("Mdid", mdid(db.system_id, name, db.version(name)))
        rel.set("Name", name)
        rel.set("DistributionPolicy", table.distribution.value)
        if table.distribution_columns:
            rel.set("DistributionColumns", ",".join(table.distribution_columns))
        columns = ET.SubElement(rel, "Columns")
        for i, col in enumerate(table.columns):
            c = ET.SubElement(columns, "Column")
            c.set("Name", col.name)
            c.set("Attno", str(i + 1))
            c.set("TypeName", col.dtype.name)
            c.set("Nullable", str(col.nullable).lower())
        for index in table.indexes:
            idx = ET.SubElement(rel, "Index")
            idx.set("Name", index.name)
            idx.set("Column", index.column)
        if table.partitioning is not None:
            parts = ET.SubElement(rel, "Partitioning")
            parts.set("Column", table.partitioning.column)
            for part in table.partitioning.partitions:
                p = ET.SubElement(parts, "Partition")
                p.set("Name", part.name)
                lo = ET.SubElement(p, "Lo")
                encode_value(lo, part.lo)
                hi = ET.SubElement(p, "Hi")
                encode_value(hi, part.hi)
        stats = db.stats(name)
        if stats is not None:
            _serialize_stats(root, db, name, stats)
    return root


def _serialize_stats(
    root: ET.Element, db: Database, name: str, stats: TableStats
) -> None:
    rel_stats = ET.SubElement(root, "RelStats")
    rel_stats.set("Mdid", mdid(db.system_id, name, db.version(name)))
    rel_stats.set("Name", name)
    rel_stats.set("Rows", repr(stats.row_count))
    for col_name, col_stats in stats.columns.items():
        cs = ET.SubElement(root, "ColStats")
        cs.set("Relation", name)
        cs.set("Column", col_name)
        cs.set("NDV", repr(col_stats.ndv))
        cs.set("NullFrac", repr(col_stats.null_frac))
        cs.set("Width", str(col_stats.width))
        if col_stats.histogram is not None:
            hist = ET.SubElement(cs, "Histogram")
            hist.set("NullRows", repr(col_stats.histogram.null_rows))
            for bucket in col_stats.histogram.buckets:
                b = ET.SubElement(hist, "Bucket")
                b.set("Lo", repr(bucket.lo))
                b.set("Hi", repr(bucket.hi))
                b.set("Rows", repr(bucket.rows))
                b.set("NDV", repr(bucket.ndv))
