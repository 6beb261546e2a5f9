"""DXL serialization round trips, and optimization over metadata read
back from DXL with the backend offline (Figure 9)."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.config import OptimizerConfig
from repro.dxl.parser import parse_document, parse_metadata, parse_query
from repro.errors import DXLError
from repro.dxl.serializer import (
    serialize_metadata,
    serialize_plan,
    serialize_query,
    serialize_scalar,
    to_string,
)
from repro.engine.emit import compiled_row
from repro.ops.scalar import (
    AggFunc,
    Arith,
    BoolExpr,
    CaseExpr,
    ColRefExpr,
    ColumnFactory,
    Comparison,
    InList,
    IsNull,
    LikeExpr,
    Literal,
)
from repro.catalog.types import INT, TEXT
from repro.optimizer import Orca
from repro.sql.translator import Translator
from repro.workloads import QUERIES

from tests.conftest import make_partitioned_db, make_small_db


@pytest.fixture(scope="module")
def db():
    return make_small_db()


def scalar_roundtrip(expr):
    root = ET.Element("X")
    serialize_scalar(root, expr)
    factory = ColumnFactory()
    from repro.dxl.parser import parse_scalar

    return parse_scalar(list(root)[0], factory)


class TestScalarDXL:
    def exprs(self):
        f = ColumnFactory()
        a = ColRefExpr(f.next("a", INT))
        c = ColRefExpr(f.next("c", TEXT))
        return [
            Literal(5),
            Literal(None, INT),
            Literal("it's"),
            Comparison("<=", a, Literal(3)),
            BoolExpr("and", [Comparison("=", a, Literal(1)), IsNull(a)]),
            Arith("*", a, Literal(2)),
            InList(a, [1, 2, 3], negated=True),
            LikeExpr(c, "x%_y"),
            CaseExpr([(Comparison(">", a, Literal(0)), Literal("pos"))],
                     Literal("neg")),
            AggFunc("sum", a, distinct=True),
        ]

    @pytest.mark.parametrize("idx", range(10))
    def test_roundtrip_by_key(self, idx):
        expr = self.exprs()[idx]
        assert scalar_roundtrip(expr).key() == expr.key()

    def test_roundtrip_evaluates_identically(self):
        f = ColumnFactory()
        a = f.next("a", INT)
        expr = BoolExpr("or", [
            Comparison("<", ColRefExpr(a), Literal(5)),
            InList(ColRefExpr(a), [7, 9]),
        ])
        back = scalar_roundtrip(expr)
        original = compiled_row(expr, {a.id: 0})
        roundtripped = compiled_row(back, {0: 0})
        for v in (1, 7, 8, None):
            assert original((v,), {}) is roundtripped((v,), {})


class TestQueryDXL:
    def roundtrip(self, db, sql):
        translator = Translator(db)
        q = translator.translate_sql(sql)
        doc = serialize_query(
            q.tree, q.output_cols, q.required_sort,
            cte_producers=[
                (c.cte_id, c.tree, c.output_cols) for c in q.cte_defs
            ],
        )
        text = to_string(doc)
        factory = ColumnFactory()
        tree, out_cols, sort, ctes = parse_query(
            ET.fromstring(text), db, factory
        )
        return q, tree, out_cols, sort, ctes

    def test_simple_query_tree_preserved(self, db):
        q, tree, out_cols, sort, _ctes = self.roundtrip(
            db, "SELECT a, b FROM t1 WHERE b > 5 ORDER BY a"
        )
        assert [c.id for c in out_cols] == [c.id for c in q.output_cols]
        assert [(c.id, asc) for c, asc in sort] == [
            (c.id, asc) for c, asc in q.required_sort
        ]
        assert [type(n.op).__name__ for n in tree.walk()] == [
            type(n.op).__name__ for n in q.tree.walk()
        ]

    def test_complex_query_roundtrip(self, db):
        sql = (
            "SELECT c, count(*) AS n FROM t1 "
            "WHERE a IN (SELECT b FROM t2 WHERE t2.a > 5) "
            "GROUP BY c ORDER BY n DESC LIMIT 3"
        )
        q, tree, *_rest = self.roundtrip(db, sql)
        assert [type(n.op).__name__ for n in tree.walk()] == [
            type(n.op).__name__ for n in q.tree.walk()
        ]

    def test_cte_producers_serialized(self, db):
        sql = (
            "WITH v AS (SELECT c, count(*) AS n FROM t1 GROUP BY c) "
            "SELECT v1.c FROM v v1, v v2 WHERE v1.n = v2.n"
        )
        q, _tree, _cols, _sort, ctes = self.roundtrip(db, sql)
        assert len(ctes) == len(q.cte_defs) == 1
        cte_id, producer_tree, cols = ctes[0]
        assert cte_id == q.cte_defs[0].cte_id
        assert [c.id for c in cols] == [
            c.id for c in q.cte_defs[0].output_cols
        ]

    def test_window_query_roundtrip(self, db):
        sql = "SELECT rank() OVER (PARTITION BY c ORDER BY b) FROM t1"
        q, tree, *_ = self.roundtrip(db, sql)
        assert [type(n.op).__name__ for n in tree.walk()] == [
            type(n.op).__name__ for n in q.tree.walk()
        ]


def _empty(elem):
    for child in list(elem):
        elem.remove(child)


#: (what is broken, path of the element, how, the DXLError's message).
MALFORMED = [
    ("empty-predicate", ".//Predicate", _empty,
     "<Predicate> has no child element"),
    ("empty-projelem", ".//ProjElem", _empty,
     "<ProjElem> has no child element"),
    ("one-operand-arith", ".//Arith", lambda e: e.remove(e[1]),
     "<Arith> has 1 operands, not 2"),
    ("bad-jointype", ".//LogicalJoin", lambda e: e.set("JoinType", "sideways"),
     "<LogicalJoin> has no valid JoinType attribute: 'sideways'"),
    ("bad-count", ".//LogicalLimit", lambda e: e.set("Count", "three"),
     "<LogicalLimit> has no valid Count attribute: 'three'"),
    ("bad-colid", ".//Ident", lambda e: e.set("ColId", "x"),
     "<Ident> has no valid ColId attribute: 'x'"),
    ("bad-const", ".//Const", lambda e: e.set("Value", "five"),
     "<Const> has no valid Value attribute: 'five'"),
    ("no-operator", "Query", lambda e: e.remove(e.find("LogicalLimit")),
     "<Query> has no logical operator"),
]


@pytest.mark.parametrize(
    "path, mutate, message", [case[1:] for case in MALFORMED],
    ids=[case[0] for case in MALFORMED],
)
def test_malformed_query_is_a_dxl_error(db, path, mutate, message):
    """What the parser indexes into or converts is checked first: a
    broken element is a DXLError naming it, never a raw exception."""
    q = Translator(db).translate_sql(
        "SELECT t1.a, t1.b + 1 AS b1 FROM t1 JOIN t2 ON t1.a = t2.a "
        "WHERE t1.b > 5 ORDER BY t1.a LIMIT 3"
    )
    root = ET.fromstring(to_string(
        serialize_query(q.tree, q.output_cols, q.required_sort)
    ))
    mutate(root.find(path))
    with pytest.raises(DXLError) as refused:
        parse_query(root, db, ColumnFactory())
    assert str(refused.value) == message


class TestMetadataDXL:
    def test_schema_roundtrip(self, db):
        doc = serialize_metadata(db)
        back = parse_metadata(ET.fromstring(to_string(doc)))
        assert {t.name for t in back.tables()} == {"t1", "t2"}
        t1 = back.table("t1")
        assert [c.name for c in t1.columns] == ["a", "b", "c"]
        assert t1.distribution_columns == ("a",)
        assert any(i.column == "b" for i in t1.indexes)

    def test_stats_roundtrip(self, db):
        doc = serialize_metadata(db, ["t1"])
        back = parse_metadata(ET.fromstring(to_string(doc)))
        orig = db.stats("t1")
        restored = back.stats("t1")
        assert restored.row_count == orig.row_count
        assert restored.column("a").ndv == orig.column("a").ndv
        oh = orig.column("a").histogram
        rh = restored.column("a").histogram
        assert rh.select_eq(500) == pytest.approx(oh.select_eq(500))

    def test_partitioned_table_roundtrip(self):
        db = make_partitioned_db()
        doc = serialize_metadata(db, ["fact"])
        back = parse_metadata(ET.fromstring(to_string(doc)))
        fact = back.table("fact")
        assert fact.partitioning is not None
        assert fact.num_partitions() == 10
        assert fact.partitioning.route(250) == 2

    def test_minimal_harvest(self, db):
        doc = serialize_metadata(db, ["t1"])
        back = parse_metadata(ET.fromstring(to_string(doc)))
        assert back.has_table("t1")
        assert not back.has_table("t2")


class TestPlanDXL:
    def test_plan_serialization_contains_costs(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 ORDER BY a")
        text = to_string(serialize_plan(result.plan))
        assert "Cost=" in text and "GatherMerge" in text


class TestOfflineMetadata:
    """Orca over the catalog's metadata exported to DXL text and parsed
    back, with no rows behind it, gives the live catalog's plan."""

    @pytest.fixture(scope="class")
    def orcas(self, tpcds_db):
        offline_db = parse_metadata(
            parse_document(to_string(serialize_metadata(tpcds_db)))
        )
        config = OptimizerConfig(segments=8)
        return Orca(tpcds_db, config=config), Orca(offline_db, config=config)

    @pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
    def test_offline_plan_equals_live(self, query, orcas):
        live, offline = (orca.optimize(query.sql) for orca in orcas)
        assert offline.explain() == live.explain()
        assert offline.plan.cost.hex() == live.plan.cost.hex()
