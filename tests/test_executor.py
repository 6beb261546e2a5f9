"""Executor tests: every physical operator against reference computations."""

from __future__ import annotations

import random
import sqlite3
from collections import Counter, defaultdict

import pytest

from repro.catalog import Column, Database, INT, Table
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.errors import OutOfMemoryError, TimeoutError_
from repro.optimizer import Orca
from repro.planner import LegacyPlanner

from tests.conftest import make_partitioned_db, make_small_db, rows_equal


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
        sql = (
            "SELECT a FROM t1 WHERE b > "
            "(SELECT avg(b) FROM t2 WHERE t2.a = t1.a)"
        )
        planner = LegacyPlanner(db, OptimizerConfig(segments=8))
        result = planner.optimize(sql)
        cluster = Cluster(db, segments=8)
        charged = Executor(cluster, cache_correlated_work=False).execute(
            result.plan, result.output_cols
        )
        cached = Executor(cluster, cache_correlated_work=True).execute(
            result.plan, result.output_cols
        )
        assert charged.simulated_seconds() > cached.simulated_seconds() * 2


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
        out, _ = run(db, "SELECT a FROM t1 WHERE b > 50")
        assert out.metrics.cardinalities
        from repro.verify.cardtest import check_cardinalities

        report = check_cardinalities(out.metrics.cardinalities)
        assert report.median_q_error() < 2.0
