"""DXL serialization round trips and the metadata provider framework."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.dxl.parser import parse_metadata, parse_query
from repro.dxl.serializer import (
    serialize_metadata,
    serialize_plan,
    serialize_query,
    serialize_scalar,
    to_string,
)
from repro.engine.emit import compiled_row
from repro.errors import MetadataError
from repro.mdp import CatalogProvider, FileProvider, MDAccessor, MDCache, MDId
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
from repro.sql.translator import Translator

from tests.conftest import make_partitioned_db, make_small_db
from tests.helpers import evict_unpinned


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
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca

        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 ORDER BY a")
        text = to_string(serialize_plan(result.plan))
        assert "Cost=" in text and "GatherMerge" in text


class TestMDId:
    def test_string_roundtrip(self):
        mdid = MDId("GPDB", "t1", 3, kind=MDId.RELATION)
        assert MDId.parse(str(mdid)) == mdid

    def test_malformed_rejected(self):
        with pytest.raises(MetadataError):
            MDId.parse("garbage")

    def test_base_key_ignores_version(self):
        a = MDId("GPDB", "t1", 1)
        b = MDId("GPDB", "t1", 2)
        assert a.base_key() == b.base_key()


class TestMDCacheAndAccessor:
    def test_cache_hit_after_store(self, db):
        cache = MDCache()
        provider = CatalogProvider(db)
        accessor = MDAccessor(cache, provider)
        accessor.table("t1")
        assert cache.misses == 1
        accessor2 = MDAccessor(cache, provider)
        accessor2.table("t1")
        assert cache.hits == 1

    def test_version_bump_invalidates(self, db):
        local_db = make_small_db(t1_rows=10, t2_rows=10)
        cache = MDCache()
        provider = CatalogProvider(local_db)
        MDAccessor(cache, provider).table("t1")
        local_db.insert("t1", [(1, 2, "x")])  # bumps version
        MDAccessor(cache, provider).table("t1")
        assert cache.invalidations == 1

    def test_pinned_entries_survive_eviction(self, db):
        cache = MDCache()
        provider = CatalogProvider(db)
        accessor = MDAccessor(cache, provider)
        accessor.table("t1")
        accessor2 = MDAccessor(cache, provider)
        accessor2.table("t2")
        accessor2.close()
        evicted = evict_unpinned(cache)
        assert evicted == 1  # t2 unpinned, t1 still pinned
        accessor.close()
        assert evict_unpinned(cache) == 1

    def test_accessor_tracks_accessed(self, db):
        accessor = MDAccessor(MDCache(), CatalogProvider(db))
        accessor.table("t1")
        accessor.stats("t2")
        assert accessor.accessed == ["t1", "t2"]

    def test_accessor_closed_rejects_use(self, db):
        accessor = MDAccessor(MDCache(), CatalogProvider(db))
        accessor.close()
        with pytest.raises(MetadataError):
            accessor.table("t1")

    def test_unknown_object(self, db):
        accessor = MDAccessor(MDCache(), CatalogProvider(db))
        with pytest.raises(MetadataError):
            accessor.table("nope")
        assert accessor.stats("nope") is None


class TestFileProvider:
    def test_provider_from_file(self, db, tmp_path):
        path = tmp_path / "metadata.dxl"
        path.write_text(to_string(serialize_metadata(db)), encoding="utf-8")
        provider = FileProvider(path)
        assert set(provider.table_names()) == {"t1", "t2"}
        accessor = MDAccessor(MDCache(), provider)
        assert accessor.table("t1").name == "t1"
        assert accessor.stats("t1").row_count == db.stats("t1").row_count

    def test_accessor_is_catalog_compatible(self, db, tmp_path):
        """An MDAccessor over a file provider can back a full optimization
        (the 'replay with the backend offline' architecture, Figure 9)."""
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca

        path = tmp_path / "metadata.dxl"
        path.write_text(to_string(serialize_metadata(db)), encoding="utf-8")
        accessor = MDAccessor(MDCache(), FileProvider(path))
        orca = Orca(accessor, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b ORDER BY t1.a"
        )
        assert result.plan.op.name == "GatherMerge"
        assert "t1" in accessor.accessed and "t2" in accessor.accessed
