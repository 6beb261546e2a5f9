"""Parsing DXL documents back into catalog objects and logical trees."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from datetime import date
from typing import Optional, Union

from repro.catalog.database import Database
from repro.catalog.schema import (
    Column,
    DistributionPolicy,
    Index,
    PartitionScheme,
    RangePartition,
    Table,
)
from repro.catalog.statistics import Bucket, ColumnStats, Histogram, TableStats
from repro.catalog.types import BY_NAME, DataType, TEXT
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
    ColumnFactory,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    WindowFunc,
)


def parse_document(text: Union[str, bytes]) -> ET.Element:
    """Parse DXL text; input that is not well-formed XML is a DXLError."""
    try:
        return ET.fromstring(text)
    except ET.ParseError as exc:
        raise DXLError(f"not a DXL document: {exc}") from None


def _child(elem: ET.Element, tag: str) -> ET.Element:
    """``elem``'s required ``tag`` child; a missing one is a DXLError."""
    child = elem.find(tag)
    if child is None:
        raise DXLError(f"<{elem.tag}> has no <{tag}> element")
    return child


def _first(elem: ET.Element) -> ET.Element:
    """``elem``'s first child element; an empty one is a DXLError."""
    if not len(elem):
        raise DXLError(f"<{elem.tag}> has no child element")
    return elem[0]


def _operands(elem: ET.Element) -> list[ET.Element]:
    """The two child elements of a binary scalar, else a DXLError."""
    kids = list(elem)
    if len(kids) != 2:
        raise DXLError(f"<{elem.tag}> has {len(kids)} operands, not 2")
    return kids


def _attr(elem: ET.Element, name: str, convert, default=None):
    """Attribute ``name`` read through ``convert`` (``int``, an enum);
    ``default`` stands in for a missing one.  A value ``convert``
    refuses, or a missing one with no default, is a DXLError."""
    raw = elem.get(name, default)
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise DXLError(
            f"<{elem.tag}> has no valid {name} attribute: {raw!r}"
        ) from None


def _ids(raw: str) -> tuple[int, ...]:
    """A comma-separated id list (``""`` is empty)."""
    return tuple(int(x) for x in raw.split(",") if x != "")


# ----------------------------------------------------------------------
# Values
# ----------------------------------------------------------------------

def decode_value(elem: ET.Element):
    if elem.get("IsNull") == "true":
        return None
    kind = elem.get("ValueType")
    raw = elem.get("Value", "")
    if kind == "bool":
        return raw == "true"
    if kind == "text":
        return raw
    convert = {"int": int, "float": float, "date": date.fromisoformat}.get(kind)
    if convert is None:
        raise DXLError(f"unknown value type {kind!r}")
    return _attr(elem, "Value", convert, "")


def _dtype(name: Optional[str]) -> DataType:
    if name is None:
        return TEXT
    dtype = BY_NAME.get(name)
    if dtype is None:
        raise DXLError(f"unknown type {name!r}")
    return dtype


def _parse_colref(elem: ET.Element, factory: ColumnFactory) -> ColRef:
    ref = ColRef(
        _attr(elem, "ColId", int, "0"),
        elem.get("Name", "col"),
        _dtype(elem.get("TypeName")),
    )
    return factory.register(ref)


# ----------------------------------------------------------------------
# Metadata
# ----------------------------------------------------------------------

def parse_metadata(elem: ET.Element) -> Database:
    """Reconstruct a schema+stats-only Database from a Metadata element.

    The result has no rows; it is sufficient for optimization, which is
    exactly the point of AMPERe replay (Section 6.1).
    """
    system = elem.get("SystemIds", "0.GPDB").split(".", 1)[-1]
    db = Database(name="replay", system_id=system)
    stats_by_table: dict[str, TableStats] = {}
    for rel in elem.findall("Relation"):
        name = rel.get("Name")
        columns = [
            Column(
                c.get("Name"),
                _dtype(c.get("TypeName")),
                c.get("Nullable", "true") == "true",
            )
            for c in _child(rel, "Columns").findall("Column")
        ]
        indexes = [
            Index(i.get("Name"), i.get("Column"))
            for i in rel.findall("Index")
        ]
        partitioning = None
        parts_elem = rel.find("Partitioning")
        if parts_elem is not None:
            partitions = tuple(
                RangePartition(
                    p.get("Name"),
                    decode_value(_child(p, "Lo")),
                    decode_value(_child(p, "Hi")),
                )
                for p in parts_elem.findall("Partition")
            )
            partitioning = PartitionScheme(parts_elem.get("Column"), partitions)
        dist_cols = tuple(
            filter(None, (rel.get("DistributionColumns") or "").split(","))
        )
        table = Table(
            name,
            columns,
            distribution=_attr(rel, "DistributionPolicy", DistributionPolicy),
            distribution_columns=dist_cols,
            indexes=indexes,
            partitioning=partitioning,
        )
        db.create_table(table)
    for rel_stats in elem.findall("RelStats"):
        stats_by_table[rel_stats.get("Name")] = TableStats(
            row_count=_attr(rel_stats, "Rows", float, "0")
        )
    for col_stats in elem.findall("ColStats"):
        table_name = col_stats.get("Relation")
        stats = stats_by_table.setdefault(table_name, TableStats(row_count=0.0))
        histogram = None
        hist_elem = col_stats.find("Histogram")
        if hist_elem is not None:
            buckets = tuple(
                Bucket(*(
                    _attr(b, name, float) for name in ("Lo", "Hi", "Rows", "NDV")
                ))
                for b in hist_elem.findall("Bucket")
            )
            histogram = Histogram(
                buckets=buckets,
                null_rows=_attr(hist_elem, "NullRows", float, "0"),
            )
        stats.columns[col_stats.get("Column")] = ColumnStats(
            ndv=_attr(col_stats, "NDV", float, "0"),
            null_frac=_attr(col_stats, "NullFrac", float, "0"),
            histogram=histogram,
            width=_attr(col_stats, "Width", int, "8"),
        )
    for name, stats in stats_by_table.items():
        if db.has_table(name):
            db.set_stats(name, stats)
    return db


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------

def parse_scalar(elem: ET.Element, factory: ColumnFactory):
    tag = elem.tag
    if tag == "Ident":
        return ColRefExpr(_parse_colref(elem, factory))
    if tag == "Const":
        return Literal(decode_value(elem), _dtype(elem.get("TypeName")))
    if tag == "Comparison":
        kids = _operands(elem)
        return Comparison(
            elem.get("Operator"),
            parse_scalar(kids[0], factory),
            parse_scalar(kids[1], factory),
        )
    if tag == "BoolExpr":
        return BoolExpr(
            elem.get("Kind"), [parse_scalar(c, factory) for c in elem]
        )
    if tag == "Arith":
        kids = _operands(elem)
        return Arith(
            elem.get("Operator"),
            parse_scalar(kids[0], factory),
            parse_scalar(kids[1], factory),
        )
    if tag == "IsNull":
        return IsNull(
            parse_scalar(_first(elem), factory),
            elem.get("Negated") == "true",
        )
    if tag == "InList":
        arg = parse_scalar(_first(elem), factory)
        values = [decode_value(v) for v in elem.findall("Value")]
        return InList(arg, values, elem.get("Negated") == "true")
    if tag == "Like":
        return LikeExpr(
            parse_scalar(_first(elem), factory),
            elem.get("Pattern", ""),
            elem.get("Negated") == "true",
        )
    if tag == "Case":
        whens = []
        for when in elem.findall("When"):
            kids = _operands(when)
            whens.append(
                (parse_scalar(kids[0], factory), parse_scalar(kids[1], factory))
            )
        else_elem = elem.find("Else")
        else_ = parse_scalar(list(else_elem)[0], factory) if else_elem is not None \
            and len(else_elem) else None
        return CaseExpr(whens, else_)
    if tag == "AggFunc":
        kids = list(elem)
        arg = parse_scalar(kids[0], factory) if kids else None
        return AggFunc(elem.get("Name"), arg, elem.get("Distinct") == "true")
    if tag == "WindowFunc":
        partition = [
            _parse_colref(c, factory)
            for c in _child(elem, "PartitionBy").findall("Ident")
        ]
        order = [
            (_parse_colref(c, factory), c.get("Ascending") != "false")
            for c in _child(elem, "OrderBy").findall("SortKey")
        ]
        arg_elem = elem.find("Arg")
        arg = (
            parse_scalar(list(arg_elem)[0], factory)
            if arg_elem is not None and len(arg_elem)
            else None
        )
        return WindowFunc(elem.get("Name"), arg, partition, order)
    raise DXLError(f"unknown scalar element {tag!r}")


# ----------------------------------------------------------------------
# Logical operators
# ----------------------------------------------------------------------

_LOGICAL_TAGS = {
    "LogicalGet", "LogicalSelect", "LogicalProject", "LogicalJoin",
    "LogicalApply", "LogicalGbAgg", "LogicalLimit", "LogicalUnionAll",
    "LogicalWindow", "LogicalCTEAnchor", "LogicalCTEConsumer",
}


def _logical_children(elem: ET.Element, db, factory) -> list[Expression]:
    return [
        parse_logical(child, db, factory)
        for child in elem
        if child.tag in _LOGICAL_TAGS
    ]


def _logical_child(elem: ET.Element) -> ET.Element:
    """``elem``'s first logical-operator child, else a DXLError."""
    for child in elem:
        if child.tag in _LOGICAL_TAGS:
            return child
    raise DXLError(f"<{elem.tag}> has no logical operator")


def parse_logical(
    elem: ET.Element, db: Database, factory: ColumnFactory
) -> Expression:
    tag = elem.tag
    if tag == "LogicalGet":
        desc = _child(elem, "TableDescriptor")
        table = db.table(desc.get("Name"))
        columns = [
            _parse_colref(c, factory)
            for c in _child(desc, "Columns").findall("Ident")
        ]
        partitions = None
        if desc.get("Partitions") is not None:
            partitions = _attr(desc, "Partitions", _ids)
        return Expression(
            lg.LogicalGet(table, columns, desc.get("Alias"), partitions)
        )
    if tag == "LogicalSelect":
        pred = parse_scalar(_first(_child(elem, "Predicate")), factory)
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalSelect(pred), children)
    if tag == "LogicalProject":
        projections = []
        for proj in elem.findall("ProjElem"):
            ref = _parse_colref(proj, factory)
            scalar = parse_scalar(_first(proj), factory)
            projections.append((scalar, ref))
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalProject(projections), children)
    if tag == "LogicalJoin":
        kind = _attr(elem, "JoinType", lg.JoinKind)
        cond_elem = elem.find("JoinCondition")
        condition = (
            parse_scalar(list(cond_elem)[0], factory)
            if cond_elem is not None and len(cond_elem)
            else None
        )
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalJoin(kind, condition), children)
    if tag == "LogicalApply":
        kind = _attr(elem, "Kind", lg.ApplyKind)
        outer_refs = frozenset(_attr(elem, "OuterRefs", _ids, ""))
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalApply(kind, outer_refs), children)
    if tag == "LogicalGbAgg":
        stage = _attr(elem, "Stage", lg.AggStage, "global")
        groups = [
            _parse_colref(c, factory)
            for c in _child(elem, "GroupingColumns").findall("Ident")
        ]
        aggs = []
        for agg_elem in elem.findall("AggElem"):
            ref = _parse_colref(agg_elem, factory)
            func = parse_scalar(_first(agg_elem), factory)
            aggs.append((func, ref))
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalGbAgg(groups, aggs, stage), children)
    if tag == "LogicalLimit":
        count = elem.get("Count")
        sort_keys = [
            (_parse_colref(c, factory), c.get("Ascending") != "false")
            for c in _child(elem, "SortingColumnList").findall("SortingColumn")
        ]
        children = _logical_children(elem, db, factory)
        return Expression(
            lg.LogicalLimit(
                sort_keys,
                _attr(elem, "Count", int) if count is not None else None,
                _attr(elem, "Offset", int, "0"),
            ),
            children,
        )
    if tag == "LogicalUnionAll":
        output = [
            _parse_colref(c, factory)
            for c in _child(elem, "OutputColumns").findall("Ident")
        ]
        inputs = [
            [_parse_colref(c, factory) for c in inp.findall("Ident")]
            for inp in elem.findall("InputColumns")
        ]
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalUnionAll(output, inputs), children)
    if tag == "LogicalWindow":
        funcs = []
        for win in elem.findall("WindowElem"):
            ref = _parse_colref(win, factory)
            func = parse_scalar(_first(win), factory)
            funcs.append((func, ref))
        children = _logical_children(elem, db, factory)
        return Expression(lg.LogicalWindow(funcs), children)
    if tag == "LogicalCTEAnchor":
        children = _logical_children(elem, db, factory)
        return Expression(
            lg.LogicalCTEAnchor(_attr(elem, "CTEId", int)), children
        )
    if tag == "LogicalCTEConsumer":
        output = [
            _parse_colref(c, factory)
            for c in _child(elem, "OutputColumns").findall("Ident")
        ]
        producer = [
            _parse_colref(c, factory)
            for c in _child(elem, "ProducerColumns").findall("Ident")
        ]
        return Expression(
            lg.LogicalCTEConsumer(_attr(elem, "CTEId", int), output, producer)
        )
    raise DXLError(f"unknown logical element {tag!r}")


def parse_query(root: ET.Element, db: Database, factory: ColumnFactory):
    """Parse a DXL Query message.

    Returns (tree, output_cols, required_sort, cte_producers) where
    ``cte_producers`` is a list of (cte_id, tree, output_cols).
    """
    query = _child(root, "Query")
    output = [
        _parse_colref(c, factory)
        for c in _child(query, "OutputColumns").findall("Ident")
    ]
    required_sort = [
        (_parse_colref(c, factory), c.get("Ascending") != "false")
        for c in _child(query, "SortingColumnList").findall("SortingColumn")
    ]
    cte_producers = []
    for producer in query.findall("CTEProducerDef"):
        cols = [
            _parse_colref(c, factory)
            for c in _child(producer, "OutputColumns").findall("Ident")
        ]
        tree = parse_logical(_logical_child(producer), db, factory)
        cte_producers.append((_attr(producer, "CTEId", int), tree, cols))
    tree = parse_logical(_logical_child(query), db, factory)
    return tree, output, required_sort, cte_producers
