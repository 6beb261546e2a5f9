"""Expression trees, configuration, and error-hierarchy tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.catalog import Column, INT, Table
from repro.config import OptimizationStage, OptimizerConfig
from repro.errors import (
    BindError,
    CatalogError,
    DXLError,
    NoPlanError,
    OptimizerError,
    OutOfMemoryError,
    ReproError,
    SQLError,
    TimeoutError_,
    UnsupportedError,
)
from repro.ops import Expression
from repro.ops.logical import JoinKind, LogicalGet, LogicalJoin, LogicalSelect
from repro.ops.scalar import ColRefExpr, ColumnFactory, Comparison, Literal


@pytest.fixture()
def tree():
    f = ColumnFactory()
    t1 = Table("t1", [Column("a", INT), Column("b", INT)])
    t2 = Table("t2", [Column("a", INT)])
    c1 = [f.next("a", INT), f.next("b", INT)]
    c2 = [f.next("x", INT)]
    join = Expression(
        LogicalJoin(
            JoinKind.INNER, Comparison("=", ColRefExpr(c1[0]), ColRefExpr(c2[0]))
        ),
        [Expression(LogicalGet(t1, c1)), Expression(LogicalGet(t2, c2))],
    )
    return f, c1, c2, join


class TestExpression:
    def test_arity_enforced(self, tree):
        f, c1, _c2, join = tree
        with pytest.raises(ValueError):
            Expression(LogicalSelect(Literal(True)), [])  # needs 1 child

    def test_walk_preorder(self, tree):
        _f, _c1, _c2, join = tree
        names = [type(n.op).__name__ for n in join.walk()]
        assert names == ["LogicalJoin", "LogicalGet", "LogicalGet"]

    def test_output_columns_composition(self, tree):
        _f, c1, c2, join = tree
        assert [c.id for c in join.output_columns()] == [
            c1[0].id, c1[1].id, c2[0].id
        ]

    def test_substitute_deep(self, tree):
        f, c1, c2, join = tree
        replacement = f.next("fresh", INT)
        out = join.substitute({c1[0].id: ColRefExpr(replacement)})
        cond = out.op.condition
        assert replacement.id in cond.used_columns()
        # original untouched (immutably rebuilt)
        assert c1[0].id in join.op.condition.used_columns()

    def test_tree_string_indents(self, tree):
        _f, _c1, _c2, join = tree
        lines = join.tree_string().splitlines()
        assert lines[0].startswith("InnerJoin")
        assert lines[1].startswith("  Get")


class TestConfig:
    def test_default_has_one_stage(self):
        assert len(OptimizerConfig().stages) == 1

    def test_with_disabled_accumulates(self):
        config = OptimizerConfig().with_disabled("A").with_disabled("B", "C")
        assert not config.rule_enabled("A")
        assert not config.rule_enabled("B")
        assert config.rule_enabled("D")

    def test_immutability(self):
        base = OptimizerConfig()
        base.with_disabled("X")
        assert base.rule_enabled("X")

    def test_with_stages(self):
        stages = [OptimizationStage("s1"), OptimizationStage("s2")]
        config = OptimizerConfig().with_stages(stages)
        assert [s.name for s in config.stages] == ["s1", "s2"]

    def test_with_flags(self):
        config = replace(OptimizerConfig(), trace_flags=frozenset({"f1", "f2"}))
        assert config.trace_flags == frozenset({"f1", "f2"})
        assert OptimizerConfig().trace_flags == frozenset()

    def test_frozen(self):
        with pytest.raises(Exception):
            OptimizerConfig().segments = 3


class TestErrors:
    def test_hierarchy(self):
        for exc_type in (
            CatalogError, DXLError, SQLError, BindError, OptimizerError,
            NoPlanError, UnsupportedError, OutOfMemoryError, TimeoutError_,
        ):
            assert issubclass(exc_type, ReproError)
        assert issubclass(BindError, SQLError)
        assert issubclass(NoPlanError, OptimizerError)

    def test_unsupported_message(self):
        exc = UnsupportedError("window", engine="Impala")
        assert "window" in str(exc) and "Impala" in str(exc)
        assert exc.code == "UNSUPPORTED"

    def test_oom_payload(self):
        exc = OutOfMemoryError("HashJoin", 1000, 100)
        assert exc.needed_bytes == 1000 and exc.limit_bytes == 100
        assert "HashJoin" in str(exc)

    def test_codes_unique(self):
        codes = [
            CatalogError.code, DXLError.code, SQLError.code, BindError.code,
            OptimizerError.code, NoPlanError.code, UnsupportedError.code,
            OutOfMemoryError.code, TimeoutError_.code, ReproError.code,
        ]
        assert len(set(codes)) == len(codes)


class TestIndexScanPlans:
    def test_selective_predicate_picks_index_scan(self):
        """A highly selective predicate on an indexed column should win
        with an IndexScan over scan+filter (Section 3's enforcement
        example: 'an IndexScan plan delivers sorted data')."""
        from tests.conftest import make_small_db
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca

        db = make_small_db()  # t1 has an index on b
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 WHERE b = 97")
        assert any(
            node.op.name == "IndexScan" for node in result.plan.walk()
        ), result.explain()

    def test_unselective_predicate_keeps_table_scan(self):
        from tests.conftest import make_small_db
        from repro.config import OptimizerConfig
        from repro.optimizer import Orca

        db = make_small_db()
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 WHERE b >= 0")
        assert any(
            node.op.name == "TableScan" for node in result.plan.walk()
        )

    def test_index_scan_results_correct(self):
        from tests.conftest import make_small_db, rows_equal
        from repro.config import OptimizerConfig
        from repro.engine import Cluster, Executor
        from repro.optimizer import Orca

        db = make_small_db()
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a, b FROM t1 WHERE b = 97")
        out = Executor(Cluster(db, segments=8)).execute(
            result.plan, result.output_cols
        )
        expected = [(a, b) for a, b, _c in db.scan("t1") if b == 97]
        assert rows_equal(out.rows, expected)
