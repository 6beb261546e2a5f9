"""Schema, database storage, partition routing, ANALYZE and datagen tests."""

from __future__ import annotations

import pickle
from dataclasses import fields
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    Column,
    ColumnSpec,
    Database,
    Index,
    INT,
    PartitionScheme,
    ReverseStatsGenerator,
    Table,
    TEXT,
    FLOAT,
    DATE,
)
from repro.catalog.schema import RangePartition
from repro.catalog.types import (
    BY_NAME,
    date_to_ordinal,
    ordinal_to_date,
    type_of_literal,
)
from repro.catalog.statistics import axis_value
from repro.errors import CatalogError
from repro.xforms.normalization import _part_overlaps

from tests.helpers import drop_table, truncate


def _contains(part: RangePartition, value) -> bool:
    """The linear-scan oracle for ``PartitionScheme.route``."""
    if value is None:
        return False
    return axis_value(part.lo) <= axis_value(value) < axis_value(part.hi)


class TestTypes:
    def test_lookup_by_name(self):
        assert BY_NAME["int4"] is INT
        assert BY_NAME["text"] is TEXT

    def test_literal_inference(self):
        assert type_of_literal(5) is INT
        assert type_of_literal(5.0).name == "float8"
        assert type_of_literal("x") is TEXT
        assert type_of_literal(True).name == "bool"
        assert type_of_literal(date(2020, 1, 1)) is DATE

    def test_big_int_literal(self):
        assert type_of_literal(2**40).name == "int8"

    def test_date_ordinal_roundtrip(self):
        d = date(2003, 7, 15)
        assert ordinal_to_date(date_to_ordinal(d)) == d

    def test_numeric_comparability(self):
        assert INT.numeric and FLOAT.numeric
        assert not TEXT.numeric


class TestTable:
    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", INT), Column("a", INT)])

    def test_default_distribution_key(self):
        t = Table("t", [Column("a", INT), Column("b", INT)])
        assert t.distribution_columns == ("a",)

    def test_bad_distribution_column(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", INT)], distribution_columns=("zz",))

    def test_bad_index_column(self):
        with pytest.raises(CatalogError):
            Table("t", [Column("a", INT)], indexes=[Index("i", "zz")])

    def test_column_index_and_width(self):
        t = Table("t", [Column("a", INT), Column("b", TEXT)])
        assert t.column_index("b") == 1
        assert [c.dtype.width for c in t.columns] == [INT.width, TEXT.width]

    def test_unknown_column_index_is_a_catalog_error(self):
        t = Table("t", [Column("a", INT)])
        with pytest.raises(CatalogError, match="no column zz in table t"):
            t.column_index("zz")

    def test_column_positions_stay_out_of_eq_repr_and_pickle(self):
        t = Table("t", [Column("a", INT), Column("b", TEXT)])
        assert "_positions" not in repr(t)
        assert "_positions" not in [f.name for f in fields(t)]
        clone = pickle.loads(pickle.dumps(t))
        assert b"_positions" not in pickle.dumps(t)
        assert clone == t and clone.column_index("b") == 1

    def test_index_lookup(self):
        t = Table("t", [Column("a", INT)], indexes=[Index("i", "a")])
        assert [i.name for i in t.indexes if i.column == "a"] == ["i"]
        assert not [i for i in t.indexes if i.column == "zz"]


class TestPartitioning:
    def scheme(self):
        return PartitionScheme("k", (
            RangePartition("p0", 0, 10),
            RangePartition("p1", 10, 20),
            RangePartition("p2", 20, 30),
        ))

    def test_route(self):
        s = self.scheme()
        assert s.route(5) == 0
        assert s.route(10) == 1
        assert s.route(29) == 2
        assert s.route(99) is None
        assert s.route(None) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_route_is_the_first_partition_that_contains(self, data):
        """``route`` bisects the bounds' axis values computed once per
        scheme; it must pick what a linear ``_contains`` scan picks, over
        gaps, empty ranges, NaN, ``None`` and out-of-range values.  A
        scheme whose ranges are not sorted and disjoint is refused."""
        kinds = {
            "int": st.integers(-50, 50),
            "float": st.floats(-50, 50) | st.sampled_from(
                [float("nan"), float("inf"), float("-inf"), -0.0]
            ),
            "date": st.dates(date(1999, 1, 1), date(2001, 12, 31)),
            "str": st.text("abcXY\u00e9", max_size=10),
        }
        bound = kinds[data.draw(st.sampled_from(sorted(kinds)))]
        edges = data.draw(st.lists(bound, max_size=16))
        if data.draw(st.booleans()):
            edges.sort(key=axis_value)
        ranges = list(zip(edges[::2], edges[1::2]))
        partitions = tuple(
            RangePartition(f"p{i}", lo, hi) for i, (lo, hi) in enumerate(ranges)
        )
        axis = [axis_value(edge) for pair in ranges for edge in pair]
        if not all(a <= b for a, b in zip(axis, axis[1:])):
            with pytest.raises(CatalogError, match="not sorted and disjoint"):
                PartitionScheme("k", partitions)
            return
        scheme = PartitionScheme("k", partitions)
        any_value = st.none() | st.booleans() | st.one_of(*kinds.values())
        for value in data.draw(st.lists(any_value | bound, max_size=12)):
            expected = next(
                (i for i, part in enumerate(scheme.partitions)
                 if _contains(part, value)),
                None,
            )
            assert scheme.route(value) == expected, (ranges, value)

    @pytest.mark.parametrize("ranges, culprit", [
        (((0, 10), (5, 20)), "p1"),       # overlapping
        (((10, 20), (0, 10)), "p1"),      # unsorted
        (((0, 10), (20, 15)), "p1"),      # lo past hi
        (((0, float("nan")),), "p0"),     # a bound off the axis
    ])
    def test_overlapping_or_unsorted_scheme_is_refused(self, ranges, culprit):
        partitions = tuple(
            RangePartition(f"p{i}", lo, hi) for i, (lo, hi) in enumerate(ranges)
        )
        with pytest.raises(CatalogError, match=f"disjoint at {culprit} "):
            PartitionScheme("k", partitions)

    def test_partition_overlaps(self):
        """Static partition elimination's overlap test, on axis values
        (None = unbounded)."""
        p = RangePartition("p", 10, 20)
        assert _part_overlaps(p, 15, 16)
        assert _part_overlaps(p, None, 11)
        assert not _part_overlaps(p, 20, 30)


class TestDatabase:
    def make(self) -> Database:
        db = Database()
        db.create_table(Table("t", [Column("a", INT), Column("b", TEXT)]))
        return db

    def test_create_and_lookup(self):
        db = self.make()
        assert db.has_table("t")
        assert db.table("t").name == "t"

    def test_duplicate_create_rejected(self):
        db = self.make()
        with pytest.raises(CatalogError):
            db.create_table(Table("t", [Column("a", INT)]))

    def test_unknown_table(self):
        db = self.make()
        with pytest.raises(CatalogError):
            db.table("nope")

    def test_insert_scan(self):
        db = self.make()
        db.insert("t", [(1, "x"), (2, "y")])
        assert db.row_count("t") == 2
        assert sorted(db.scan("t")) == [(1, "x"), (2, "y")]

    def test_insert_arity_check(self):
        db = self.make()
        with pytest.raises(CatalogError):
            db.insert("t", [(1,)])

    def test_version_bumps_on_dml(self):
        db = self.make()
        v0 = db.version("t")
        db.insert("t", [(1, "x")])
        assert db.version("t") > v0

    def test_data_version_moves_with_the_rows_only(self):
        db = self.make()
        seen = [db.data_version("t")]

        def moved() -> bool:
            seen.append(db.data_version("t"))
            return seen[-1] != seen[-2]

        changes = db.changes
        db.insert("t", [(1, "x")])
        assert moved()
        db.analyze()
        db.set_stats("t", db.stats("t"))
        assert not moved()
        truncate(db, "t")
        assert moved()
        # A dropped and re-created table never repeats a value.
        drop_table(db, "t")
        db.create_table(Table("t", [Column("a", INT), Column("b", TEXT)]))
        db.insert("t", [(1, "x")])
        assert moved() and len(set(seen)) == len(seen) - 1
        # Every one of those seven calls moved the catalog-wide counter.
        assert db.changes == changes + 7

    def test_drop(self):
        db = self.make()
        drop_table(db, "t")
        assert not db.has_table("t")

    def test_analyze_builds_stats(self):
        db = self.make()
        db.insert("t", [(i, "x") for i in range(50)])
        db.analyze()
        stats = db.stats("t")
        assert stats.row_count == 50
        assert stats.column("a").ndv == 50
        assert stats.column("a").histogram is not None

    def test_partitioned_insert_routing(self):
        db = Database()
        db.create_table(Table(
            "p",
            [Column("k", INT), Column("v", INT)],
            partitioning=PartitionScheme("k", (
                RangePartition("a", 0, 10), RangePartition("b", 10, 20),
            )),
        ))
        db.insert("p", [(5, 1), (15, 2), (16, 3)])
        assert len(db.scan("p", [0])) == 1
        assert len(db.scan("p", [1])) == 2

    def test_partitioned_out_of_range_rejected(self):
        db = Database()
        db.create_table(Table(
            "p", [Column("k", INT)],
            partitioning=PartitionScheme("k", (RangePartition("a", 0, 10),)),
        ))
        with pytest.raises(CatalogError):
            db.insert("p", [(99,)])


class TestReverseStatsGenerator:
    def make_db(self):
        db = Database()
        db.create_table(Table("dim", [Column("id", INT), Column("cat", TEXT)]))
        db.create_table(Table(
            "fact", [Column("fk", INT), Column("amt", FLOAT), Column("d", DATE)]
        ))
        return db

    def test_serial_and_choice(self):
        db = self.make_db()
        gen = ReverseStatsGenerator(db, seed=1)
        gen.populate("dim", 100, {
            "id": ColumnSpec.serial(),
            "cat": ColumnSpec.choice(["a", "b"]),
        })
        rows = db.scan("dim")
        assert [r[0] for r in rows] == list(range(1, 101))
        assert set(r[1] for r in rows) <= {"a", "b"}

    def test_fk_referential_integrity(self):
        db = self.make_db()
        gen = ReverseStatsGenerator(db, seed=1)
        gen.populate("dim", 50, {
            "id": ColumnSpec.serial(),
            "cat": ColumnSpec.choice(["a"]),
        })
        gen.populate("fact", 500, {
            "fk": ColumnSpec.fk("dim", "id"),
            "amt": ColumnSpec.uniform_float(0, 10),
            "d": ColumnSpec.choice([date(2020, 1, 1), date(2020, 12, 31)]),
        })
        ids = {r[0] for r in db.scan("dim")}
        assert all(r[0] in ids for r in db.scan("fact"))

    def test_fk_before_target_fails(self):
        db = self.make_db()
        gen = ReverseStatsGenerator(db, seed=1)
        with pytest.raises(CatalogError):
            gen.populate("fact", 10, {
                "fk": ColumnSpec.fk("dim", "id"),
                "amt": ColumnSpec.uniform_float(0, 1),
                "d": ColumnSpec.choice([date(2020, 1, 1), date(2020, 2, 1)]),
            })

    def test_zipf_skew(self):
        db = Database()
        db.create_table(Table("z", [Column("v", INT)]))
        gen = ReverseStatsGenerator(db, seed=1)
        gen.populate("z", 2000, {"v": ColumnSpec.zipf_int(1, 100, s=1.4)})
        rows = [r[0] for r in db.scan("z")]
        ones = sum(1 for v in rows if v == 1)
        assert ones > 2000 / 100 * 3  # rank 1 far above uniform share

    def test_null_fraction(self):
        db = Database()
        db.create_table(Table("n", [Column("v", INT)]))
        gen = ReverseStatsGenerator(db, seed=1)
        gen.populate("n", 1000, {
            "v": ColumnSpec.uniform_int(0, 9, null_frac=0.3),
        })
        nulls = sum(1 for (v,) in db.scan("n") if v is None)
        assert 200 <= nulls <= 400

    def test_missing_spec_rejected(self):
        db = self.make_db()
        gen = ReverseStatsGenerator(db, seed=1)
        with pytest.raises(CatalogError):
            gen.populate("dim", 10, {"id": ColumnSpec.serial()})

    def test_deterministic_under_seed(self):
        rows = []
        for _ in range(2):
            db = Database()
            db.create_table(Table("z", [Column("v", INT)]))
            ReverseStatsGenerator(db, seed=9).populate(
                "z", 100, {"v": ColumnSpec.uniform_int(0, 1000)}
            )
            rows.append(db.scan("z"))
        assert rows[0] == rows[1]
