"""Executor tests: every physical operator against reference computations."""

from __future__ import annotations

import random
import sqlite3
from collections import Counter, defaultdict

import pytest

from repro.catalog import Column, Database, FLOAT, INT, Table
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.errors import BindError, OutOfMemoryError, TimeoutError_
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.verify.qerror import plan_qerror

from tests.conftest import make_partitioned_db, make_small_db, rows_equal
from tests.helpers import plan_operators
from tests.test_sqlite_oracle import load_oracle


@pytest.fixture(scope="module")
def db():
    return make_small_db()


@pytest.fixture(scope="module")
def part_db():
    return make_partitioned_db()


def run(db, sql, segments=8, **executor_kwargs):
    orca = Orca(db, config=OptimizerConfig(segments=segments))
    result = orca.optimize(sql)
    cluster = executor_kwargs.pop("cluster", None) or Cluster(db, segments=segments)
    out = Executor(cluster, **executor_kwargs).execute(
        result.plan, result.output_cols
    )
    return out, result


@pytest.fixture(scope="module")
def t1_rows(db):
    return db.scan("t1")


@pytest.fixture(scope="module")
def t2_rows(db):
    return db.scan("t2")


class TestScansAndFilters:
    def test_full_scan(self, db, t1_rows):
        out, _ = run(db, "SELECT a, b, c FROM t1")
        assert rows_equal(out.rows, t1_rows)

    def test_filter(self, db, t1_rows):
        out, _ = run(db, "SELECT a FROM t1 WHERE b > 90")
        expected = [(a,) for a, b, _c in t1_rows if b > 90]
        assert rows_equal(out.rows, expected)

    def test_compound_predicate(self, db, t1_rows):
        out, _ = run(db, "SELECT a FROM t1 WHERE b > 50 AND c = 'x' OR b < 2")
        expected = [
            (a,) for a, b, c in t1_rows if (b > 50 and c == "x") or b < 2
        ]
        assert rows_equal(out.rows, expected)

    def test_projection_arithmetic(self, db, t1_rows):
        out, _ = run(db, "SELECT a + b FROM t1 WHERE a < 10")
        expected = [(a + b,) for a, b, _c in t1_rows if a < 10]
        assert rows_equal(out.rows, expected)

    def test_case_projection(self, db, t1_rows):
        out, _ = run(
            db,
            "SELECT CASE WHEN b > 50 THEN 'hi' ELSE 'lo' END FROM t1",
        )
        expected = [("hi" if b > 50 else "lo",) for _a, b, _c in t1_rows]
        assert rows_equal(out.rows, expected)

    def test_index_scan_correctness(self, db, t1_rows):
        # t1 has an index on b; a range predicate should be able to use it
        # and in any case produce correct results.
        out, _ = run(db, "SELECT a, b FROM t1 WHERE b >= 95 AND b <= 97")
        expected = [(a, b) for a, b, _c in t1_rows if 95 <= b <= 97]
        assert rows_equal(out.rows, expected)


class TestJoins:
    def test_inner_join(self, db, t1_rows, t2_rows):
        out, _ = run(
            db, "SELECT t1.a, t2.a FROM t1, t2 WHERE t1.a = t2.b"
        )
        t2_by_b = defaultdict(list)
        for a2, b2 in t2_rows:
            t2_by_b[b2].append(a2)
        expected = [
            (a1, a2) for a1, _b1, _c1 in t1_rows for a2 in t2_by_b.get(a1, [])
        ]
        assert rows_equal(out.rows, expected)

    def test_left_join_null_extension(self, db, t1_rows, t2_rows):
        out, _ = run(
            db,
            "SELECT t1.a, t2.b FROM t1 LEFT JOIN t2 ON t1.a = t2.a "
            "WHERE t1.b = 7",
        )
        t2_by_a = defaultdict(list)
        for a2, b2 in t2_rows:
            t2_by_a[a2].append(b2)
        expected = []
        for a1, b1, _c1 in t1_rows:
            if b1 != 7:
                continue
            matches = t2_by_a.get(a1, [])
            if matches:
                expected.extend((a1, b2) for b2 in matches)
            else:
                expected.append((a1, None))
        assert rows_equal(out.rows, expected)

    def test_non_equi_join(self, db):
        out, _ = run(
            db,
            "SELECT count(*) FROM t1 JOIN t2 ON t1.a = t2.b "
            "AND t1.b < t2.a WHERE t1.b > 95",
        )
        t1_rows = db.scan("t1")
        t2_rows = db.scan("t2")
        expected = sum(
            1
            for a1, b1, _c in t1_rows
            if b1 > 95
            for a2, b2 in t2_rows
            if a1 == b2 and b1 < a2
        )
        assert out.rows[0][0] == expected

    def test_self_join(self, db, t2_rows):
        out, _ = run(
            db, "SELECT count(*) FROM t2 x, t2 y WHERE x.a = y.b"
        )
        by_b = Counter(b for _a, b in t2_rows)
        expected = sum(by_b.get(a, 0) for a, _b in t2_rows)
        assert out.rows[0][0] == expected

    def test_semi_join_via_in(self, db, t1_rows, t2_rows):
        out, _ = run(
            db, "SELECT a FROM t1 WHERE a IN (SELECT b FROM t2)"
        )
        t2_bs = {b for _a, b in t2_rows}
        expected = [(a,) for a, _b, _c in t1_rows if a in t2_bs]
        assert rows_equal(out.rows, expected)

    def test_anti_join_via_not_exists(self, db, t1_rows, t2_rows):
        out, _ = run(
            db,
            "SELECT a FROM t1 WHERE NOT EXISTS "
            "(SELECT 1 FROM t2 WHERE t2.b = t1.a)",
        )
        t2_bs = {b for _a, b in t2_rows}
        expected = [(a,) for a, _b, _c in t1_rows if a not in t2_bs]
        assert rows_equal(out.rows, expected)

    @pytest.mark.parametrize("kind, quantifier", [
        ("SEMI", "EXISTS"), ("ANTI", "NOT EXISTS"),
    ])
    def test_left_only_hash_join_residual_reads_the_build_side(
        self, kind, quantifier
    ):
        """A SEMI / ANTI hash join puts out outer rows only, but its
        residual compares against a build-side column: it has to be
        given both sides' layout, not the join's output layout.  Checked
        against an engine nobody here wrote, on data with NULLs in the
        key and in both residual operands."""
        rng = random.Random(5)

        def maybe(value):
            return None if rng.random() < 0.15 else value

        tables = {
            "t1": [(maybe(rng.randint(0, 40)), maybe(rng.randint(0, 50)))
                   for _ in range(400)],
            "t2": [(maybe(rng.randint(0, 40)), maybe(rng.randint(0, 50)))
                   for _ in range(120)],
        }
        db = Database()
        lite = sqlite3.connect(":memory:")
        for name, rows in tables.items():
            db.create_table(Table(
                name, [Column("a", INT), Column("b", INT)],
                distribution_columns=("a",),
            ))
            db.insert(name, rows)
            lite.execute(f"CREATE TABLE {name} (a INTEGER, b INTEGER)")
            lite.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
        db.analyze()
        sql = (
            f"SELECT t1.a, t1.b FROM t1 WHERE {quantifier} "
            "(SELECT 1 FROM t2 WHERE t2.a = t1.a AND t2.b < t1.b)"
        )
        result = Orca(db, config=OptimizerConfig(segments=4)).optimize(sql)
        (join,) = [
            n for n in result.plan.walk() if n.op.name.endswith("HashJoin")
        ]
        assert join.op.kind.name == kind and join.op.kind.output_is_left_only()
        build_cols = {c.id for c in join.children[1].output_cols}
        assert join.op.residual.used_columns() & build_cols

        want = lite.execute(sql).fetchall()
        assert 0 < len(want) < len(tables["t1"])
        for mode in ExecutionMode:
            out = Executor(
                Cluster(db, segments=4), execution_mode=mode
            ).execute(result.plan, result.output_cols)
            assert rows_equal(out.rows, want), mode


class TestAggregation:
    def test_group_by_counts_and_sums(self, db, t1_rows):
        out, _ = run(db, "SELECT c, count(*), sum(b), min(a), max(a) FROM t1 GROUP BY c")
        expected = {}
        for a, b, c in t1_rows:
            entry = expected.setdefault(c, [0, 0, a, a])
            entry[0] += 1
            entry[1] += b
            entry[2] = min(entry[2], a)
            entry[3] = max(entry[3], a)
        expected_rows = [(c, *vals) for c, vals in expected.items()]
        assert rows_equal(out.rows, expected_rows)

    def test_avg(self, db, t1_rows):
        out, _ = run(db, "SELECT avg(b) FROM t1")
        expected = sum(b for _a, b, _c in t1_rows) / len(t1_rows)
        assert out.rows[0][0] == pytest.approx(expected)

    def test_count_distinct(self, db, t1_rows):
        out, _ = run(db, "SELECT count(DISTINCT a) FROM t1")
        assert out.rows[0][0] == len({a for a, _b, _c in t1_rows})

    def test_scalar_agg_over_empty_input(self, db):
        out, _ = run(db, "SELECT count(*), sum(b) FROM t1 WHERE b > 10000")
        assert out.rows == [(0, None)]

    def test_grouped_agg_over_empty_input(self, db):
        out, _ = run(db, "SELECT c, count(*) FROM t1 WHERE b > 10000 GROUP BY c")
        assert out.rows == []

    def test_having_filters_groups(self, db, t1_rows):
        out, _ = run(
            db, "SELECT a FROM t1 GROUP BY a HAVING count(*) >= 10"
        )
        counts = Counter(a for a, _b, _c in t1_rows)
        expected = [(a,) for a, n in counts.items() if n >= 10]
        assert rows_equal(out.rows, expected)


class TestSortLimitWindow:
    def test_order_by_asc_desc(self, db, t2_rows):
        out, _ = run(db, "SELECT a, b FROM t2 ORDER BY a DESC, b")
        expected = sorted(t2_rows, key=lambda r: (-r[0], r[1]))
        assert out.rows == expected

    def test_limit_offset(self, db, t2_rows):
        out, _ = run(db, "SELECT a FROM t2 ORDER BY a LIMIT 5 OFFSET 3")
        expected = [(a,) for a, _b in sorted(t2_rows)[3:8]]
        assert out.rows == expected

    def test_row_number_window(self, db, t2_rows):
        out, _ = run(
            db,
            "SELECT a, row_number() OVER (ORDER BY a) FROM t2 "
            "ORDER BY a LIMIT 10",
        )
        sorted_as = sorted(a for a, _b in t2_rows)
        assert [r[1] for r in out.rows] == list(range(1, 11))
        assert [r[0] for r in out.rows] == sorted_as[:10]

    def test_rank_window_with_partition(self, db):
        out, _ = run(
            db,
            "SELECT c, b, rank() OVER (PARTITION BY c ORDER BY b) "
            "FROM t1 ORDER BY c, b LIMIT 50",
        )
        # rank 1 rows must be the minimum b within their partition
        t1_rows = db.scan("t1")
        min_b = {}
        for _a, b, c in t1_rows:
            min_b[c] = min(min_b.get(c, b), b)
        for c, b, rnk in out.rows:
            if rnk == 1:
                assert b == min_b[c]

    def test_running_sum_window(self, db):
        out, _ = run(
            db,
            "SELECT c, b, sum(b) OVER (PARTITION BY c ORDER BY b) "
            "FROM t1 WHERE a = 0 ORDER BY c, b LIMIT 20",
        )
        # within each partition, running sums are non-decreasing
        per_partition = {}
        for c, _b, s in out.rows:
            prev = per_partition.get(c)
            assert prev is None or s >= prev
            per_partition[c] = s


WINDOW_ARGS = {
    "arith": "a + b",
    "arith_float": "a * f",
    "case": "CASE WHEN a > 2 THEN b ELSE NULL END",
    "case_no_else": "CASE WHEN b IS NULL THEN f END",
}


@pytest.fixture(scope="module")
def window_db():
    """``w(k, g, a, b, f)``: ``k`` unique (so a running frame has no
    peers), NULLs in every other column, ``g`` included; ``a`` repeats,
    so ordering by it gives a running frame peers."""
    rng = random.Random(3)
    db = Database()
    db.create_table(Table(
        "w",
        [Column("k", INT), Column("g", INT), Column("a", INT),
         Column("b", INT), Column("f", FLOAT)],
        distribution_columns=("g",),
    ))

    def cell(values):
        return rng.choice(values + [None])

    db.insert("w", [
        (k, cell([0, 1, 2]), cell([0, 1, 3, 5]), cell([-2, 4, 7]),
         cell([0.5, 1.25, -3.0]))
        for k in range(40)
    ])
    db.analyze()
    oracle = load_oracle().Oracle(db)
    yield db, oracle
    oracle.close()


class TestWindowAggregatesAgainstSqlite:
    """Aggregate window functions over NULL-bearing argument
    expressions, running (ORDER BY) and whole-partition, equal sqlite's
    rows in both execution modes.  A running frame is SQL's default RANGE
    frame: ORDER BY peers, NULL keys among them, share the value after
    the last peer.  The engine sorts NULL keys last ascending, which
    sqlite has to be told."""

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "over",
        ["PARTITION BY g ORDER BY k", "PARTITION BY g", "PARTITION BY g ORDER BY a"],
        ids=["running", "whole", "peers"],
    )
    @pytest.mark.parametrize("arg", sorted(WINDOW_ARGS))
    @pytest.mark.parametrize("func", ["sum", "avg", "count", "min", "max"])
    def test_matches_sqlite(self, window_db, func, arg, over, mode):
        db, oracle = window_db
        sql = (
            f"SELECT k, g, {func}({WINDOW_ARGS[arg]}) OVER ({over}) AS v "
            "FROM w ORDER BY k"
        )
        out, result = run(db, sql, segments=4, execution_mode=mode)
        assert "Window" in plan_operators(result.plan)
        sqlite_over = f"{over} NULLS LAST" if "ORDER BY" in over else over
        expected = oracle.expected(sql.replace(over, sqlite_over))
        assert load_oracle().compare(out.rows, expected) == ""


DISTINCT_ARGS = {"int": "a", "float": "f", "arith": "a + b"}


class TestDistinctAggregatesAgainstSqlite:
    """DISTINCT aggregates over NULL-bearing arguments, grouped (the
    NULL group of ``g`` included), scalar, and scalar over no row at
    all, equal sqlite's rows in both execution modes."""

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize(
        "shape",
        [("g, ", "", "GROUP BY g"), ("", "", ""), ("", "WHERE k < 0", "")],
        ids=["grouped", "scalar", "empty"],
    )
    @pytest.mark.parametrize("arg", sorted(DISTINCT_ARGS))
    @pytest.mark.parametrize("func", ["count", "sum", "avg", "min", "max"])
    def test_matches_sqlite(self, window_db, func, arg, shape, mode):
        db, oracle = window_db
        keys, where, group = shape
        sql = (
            f"SELECT {keys}{func}(DISTINCT {DISTINCT_ARGS[arg]}) AS v "
            f"FROM w {where} {group}"
        )
        out, _result = run(db, sql, segments=4, execution_mode=mode)
        expected = oracle.expected(sql)
        assert expected.source == "sqlite"
        assert load_oracle().compare(out.rows, expected) == ""


#: Aggregates that only a window reads: its argument, PARTITION BY or
#: ORDER BY.  They are the query's aggregates all the same.
AGGREGATES_IN_WINDOWS = (
    "SELECT g, sum(sum(a)) OVER () AS v FROM w GROUP BY g",
    "SELECT g, rank() OVER (ORDER BY count(*) DESC) AS v FROM w GROUP BY g",
    "SELECT sum(sum(a)) OVER () AS v FROM w",
    "SELECT g, avg(min(f)) OVER (PARTITION BY max(a) ORDER BY sum(b) DESC) AS v "
    "FROM w GROUP BY g",
)

#: Calls SQL refuses, sqlite among them: ``*`` belongs to count alone,
#: a window call has no DISTINCT, and each function takes its own
#: number of arguments.  Each is a bind error, never a different call
#: computed silently.
REFUSED_CALLS = [
    sql
    for call in ("sum(*)", "avg(*)", "min(*)", "max(*)", "count(DISTINCT *)")
    for sql in (
        f"SELECT {call} FROM w",
        f"SELECT g FROM w GROUP BY g HAVING {call} > 1",
    )
] + [
    "SELECT k, count(DISTINCT a) OVER (PARTITION BY g) FROM w",
    "SELECT k, sum() OVER (PARTITION BY g) FROM w",
    "SELECT k, sum(a, k) OVER (PARTITION BY g) FROM w",
    "SELECT k, rank(a) OVER (ORDER BY a) FROM w",
    "SELECT k, row_number(a) OVER (ORDER BY k) FROM w",
]


class TestAggregateCallsAgainstSqlite:
    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("sql", AGGREGATES_IN_WINDOWS)
    def test_aggregate_read_by_a_window_only(self, window_db, sql, mode):
        db, oracle = window_db
        out, result = run(db, sql, segments=4, execution_mode=mode)
        assert "Window" in plan_operators(result.plan)
        expected = oracle.expected(sql)
        assert expected.source == "sqlite"
        assert load_oracle().compare(out.rows, expected) == ""

    @pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("sql", [
        "SELECT g, count() AS n FROM w GROUP BY g HAVING count() > 9",
        "SELECT k, count() OVER (PARTITION BY g) AS n FROM w",
    ])
    def test_count_without_argument_is_count_star(self, window_db, sql, mode):
        db, oracle = window_db
        out, _result = run(db, sql, segments=4, execution_mode=mode)
        expected = oracle.expected(sql)
        assert expected.source == "sqlite"
        assert load_oracle().compare(out.rows, expected) == ""

    @pytest.mark.parametrize("sql", REFUSED_CALLS)
    def test_refused_as_sqlite_refuses(self, window_db, sql):
        db, _oracle = window_db
        with pytest.raises(BindError):
            Orca(db).optimize(sql)
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE w (k, g, a, b, f)")
        with pytest.raises(sqlite3.Error):
            con.execute(sql)
        con.close()


class TestSetOperations:
    def test_union_all_count(self, db, t1_rows, t2_rows):
        out, _ = run(
            db,
            "SELECT count(*) FROM (SELECT a FROM t1 UNION ALL "
            "SELECT a FROM t2) AS u",
        )
        assert out.rows[0][0] == len(t1_rows) + len(t2_rows)

    def test_union_distinct(self, db, t1_rows, t2_rows):
        out, _ = run(db, "SELECT a FROM t1 UNION SELECT a FROM t2")
        expected = {(a,) for a, *_ in t1_rows} | {(a,) for a, _b in t2_rows}
        assert set(out.rows) == expected
        assert len(out.rows) == len(expected)

    def test_intersect(self, db, t1_rows, t2_rows):
        out, _ = run(db, "SELECT a FROM t1 INTERSECT SELECT b FROM t2")
        expected = {a for a, *_ in t1_rows} & {b for _a, b in t2_rows}
        assert set(r[0] for r in out.rows) == expected
        assert len(out.rows) == len(expected)

    def test_except(self, db, t1_rows, t2_rows):
        out, _ = run(db, "SELECT a FROM t1 EXCEPT SELECT b FROM t2")
        expected = {a for a, *_ in t1_rows} - {b for _a, b in t2_rows}
        assert set(r[0] for r in out.rows) == expected


class TestCorrelatedExecution:
    def test_planner_correlated_matches_orca(self, db):
        sql = (
            "SELECT a FROM t1 WHERE b > "
            "(SELECT avg(b) FROM t2 WHERE t2.a = t1.a)"
        )
        orca_out, _ = run(db, sql)
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(sql)
        cluster = Cluster(db, segments=8)
        planner_out = Executor(cluster).execute(result.plan, result.output_cols)
        assert rows_equal(orca_out.rows, planner_out.rows)
        assert planner_out.metrics.subplan_executions > 100

    def test_correlated_work_charged_per_execution(self, db):
        """The inner result is memoized per binding, but every outer row
        is charged one execution, served from the memo or not."""
        sql = (
            "SELECT a FROM t1 WHERE b > "
            "(SELECT avg(b) FROM t2 WHERE t2.a = t1.a)"
        )
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(sql)
        cluster = Cluster(db, segments=8)
        out = Executor(cluster).execute(result.plan, result.output_cols)
        outer = db.scan("t1")
        assert len({row[0] for row in outer}) < len(outer) // 2
        assert out.metrics.subplan_executions == len(outer)


class TestResourceLimits:
    def test_oom_without_spill(self, db):
        cluster = Cluster(db, segments=8, memory_limit_bytes=64,
                          spill_enabled=False)
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b"
        )
        with pytest.raises(OutOfMemoryError):
            Executor(cluster).execute(result.plan, result.output_cols)

    def test_spill_avoids_oom_and_charges_work(self, db):
        tight = Cluster(db, segments=8, memory_limit_bytes=64,
                        spill_enabled=True)
        roomy = Cluster(db, segments=8)
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT t1.a FROM t1, t2 WHERE t1.a = t2.b")
        spilled = Executor(tight).execute(result.plan, result.output_cols)
        normal = Executor(roomy).execute(result.plan, result.output_cols)
        assert rows_equal(spilled.rows, normal.rows)
        assert spilled.metrics.rows_spilled > 0
        assert spilled.simulated_seconds() > normal.simulated_seconds()

    def test_timeout_enforced(self, db):
        sql = (
            "SELECT a FROM t1 WHERE b > "
            "(SELECT avg(b) FROM t2 WHERE t2.a = t1.a)"
        )
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(sql)
        cluster = Cluster(db, segments=8)
        with pytest.raises(TimeoutError_):
            Executor(cluster, time_limit_seconds=0.001).execute(
                result.plan, result.output_cols
            )


class TestPartitionedExecution:
    def test_static_pruning_scans_fewer_partitions(self, part_db):
        out_pruned, _ = run(part_db, "SELECT v FROM fact WHERE day <= 100")
        out_full, _ = run(part_db, "SELECT v FROM fact")
        assert out_pruned.metrics.partitions_scanned < \
            out_full.metrics.partitions_scanned
        expected = [
            (v,) for day, _k, v in part_db.scan("fact") if day <= 100
        ]
        assert rows_equal(out_pruned.rows, expected)

    def test_dynamic_partition_elimination_correct_and_cheaper(self, part_db):
        sql = (
            "SELECT f.v FROM fact f, dim d "
            "WHERE f.day = d.day AND d.tag = 'hot'"
        )
        out, result = run(part_db, sql)
        dim_hot = {d for d, tag in part_db.scan("dim") if tag == "hot"}
        expected = [
            (v,) for day, _k, v in part_db.scan("fact") if day in dim_hot
        ]
        assert rows_equal(out.rows, expected)
        assert any(
            node.op.name == "DynamicScan" for node in result.plan.walk()
        )
        assert out.metrics.partitions_eliminated > 0

    def test_mapreduce_overheads_slow_execution(self, part_db):
        sql = "SELECT v FROM fact WHERE day <= 100"
        normal, result = run(part_db, sql)
        cluster = Cluster(part_db, segments=8)
        stinger_style = Executor(
            cluster, per_op_startup_units=50_000.0,
            materialize_output_factor=3.0,
        ).execute(result.plan, result.output_cols)
        assert stinger_style.simulated_seconds() > \
            normal.simulated_seconds() * 2


class TestCardinalityTracking:
    def test_cardinalities_recorded(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize("SELECT a FROM t1 WHERE b > 50")
        out = Executor(Cluster(db, segments=8)).execute(
            result.plan, result.output_cols, analyze=True
        )
        report = plan_qerror(out.analysis)
        assert report.nodes
        assert report.median < 2.0
