"""Low-level engine tests: DRows, cluster hashing, motions in isolation."""

from __future__ import annotations

import subprocess
import sys
import zlib
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.catalog.types import INT, TEXT
from repro.engine.cluster import Cluster, hash_bucket, stable_hash
from repro.engine.executor import (
    DRows,
    Executor,
    REPLICATED,
    SEGMENTED,
    SINGLETON,
    _positions,
    _sort_rows,
)
from repro.errors import ExecutionError
from repro.ops.scalar import ColRef
from repro.props.order import SortKey

from tests.conftest import make_small_db


def cols(*names):
    return [ColRef(i, n, INT) for i, n in enumerate(names)]


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash(5) == stable_hash(5)

    def test_none_is_zero(self):
        assert stable_hash(None) == 0

    def test_bucket_range(self):
        for v in range(100):
            assert 0 <= hash_bucket([v], 8) < 8

    def test_multi_column_key(self):
        assert hash_bucket([1, 2], 8) == hash_bucket([1, 2], 8)
        buckets = {hash_bucket([i, i + 1], 64) for i in range(200)}
        assert len(buckets) > 16  # spreads


class TestClusterDistribution:
    def test_hash_distribution_partitions_all_rows(self):
        cluster = Cluster(db=None, segments=4)
        rows = [(i, i * 2) for i in range(100)]
        buckets = cluster.distribute_rows(rows, [0])
        assert sum(len(b) for b in buckets) == 100
        # same key -> same bucket
        again = cluster.distribute_rows(rows, [0])
        assert buckets == again

    def test_round_robin_balances(self):
        cluster = Cluster(db=None, segments=4)
        buckets = cluster.distribute_rows([(i,) for i in range(100)], None)
        assert all(len(b) == 25 for b in buckets)


class TestDRows:
    def test_total_and_single_copy(self):
        d = DRows(SEGMENTED, cols("a"), [[(1,)], [(2,), (3,)]])
        assert d.total_rows() == 3
        assert sorted(d.single_copy()) == [(1,), (2,), (3,)]

    def test_replicated_single_copy(self):
        d = DRows(REPLICATED, cols("a"), [[(1,), (2,)]])
        assert d.total_rows() == 2
        assert d.single_copy() == [(1,), (2,)]

    def test_width(self):
        d = DRows(SINGLETON, [ColRef(0, "t", TEXT), ColRef(1, "i", INT)], [[]])
        assert d.width() == TEXT.width + INT.width


class TestHelpers:
    def test_positions_maps_by_id(self):
        a, b = cols("a", "b")
        assert _positions([a, b], [b, a]) == [1, 0]

    def test_positions_missing_column(self):
        (a,) = cols("a")
        with pytest.raises(ExecutionError):
            _positions([a], [ColRef(99, "zz", INT)])

    def test_sort_rows_multi_key(self):
        a, b = cols("a", "b")
        rows = [(1, 2), (1, 1), (0, 9)]
        out = _sort_rows(rows, [a, b], [SortKey(0), SortKey(1, False)])
        assert out == [(0, 9), (1, 2), (1, 1)]

    def test_sort_rows_nulls_last(self):
        (a,) = cols("a")
        out = _sort_rows([(None,), (2,), (1,)], [a], [SortKey(0)])
        assert out == [(1,), (2,), (None,)]


class TestMotionsInIsolation:
    """Drive single motions through hand-built plans."""

    def plan_scan(self, db, table):
        from repro.ops.physical import PhysicalTableScan
        from repro.props.required import DerivedProps
        from repro.search.plan import PlanNode

        t = db.table(table)
        refs = [ColRef(i, c.name, c.dtype) for i, c in enumerate(t.columns)]
        op = PhysicalTableScan(t, refs, table)
        return PlanNode(
            op=op, children=[], output_cols=refs,
            rows_estimate=db.row_count(table),
            delivered=DerivedProps(op.table_dist()),
        ), refs

    def motion(self, db, motion_op, child_plan, cols):
        from repro.props.required import DerivedProps
        from repro.props.distribution import RANDOM
        from repro.search.plan import PlanNode

        return PlanNode(
            op=motion_op, children=[child_plan], output_cols=cols,
            rows_estimate=child_plan.rows_estimate,
            delivered=DerivedProps(RANDOM),
        )

    def test_gather_collects_everything(self):
        from repro.ops.physical import PhysicalGather

        db = make_small_db(t1_rows=200, t2_rows=50)
        scan, refs = self.plan_scan(db, "t2")
        plan = self.motion(db, PhysicalGather(), scan, refs)
        executor = Executor(Cluster(db, segments=4))
        out = executor.execute(plan, refs)
        assert sorted(out.rows) == sorted(db.scan("t2"))
        assert executor.metrics.rows_moved == 50
        assert executor.metrics.net_bytes > 0

    def test_broadcast_charges_fanout(self):
        from repro.ops.physical import PhysicalBroadcast, PhysicalGather

        db = make_small_db(t1_rows=200, t2_rows=50)
        scan, refs = self.plan_scan(db, "t2")
        bcast = self.motion(db, PhysicalBroadcast(), scan, refs)
        executor = Executor(Cluster(db, segments=4))
        out = executor.execute(bcast, refs)
        assert sorted(out.rows) == sorted(db.scan("t2"))
        assert executor.metrics.rows_moved == 50 * 4

    def test_redistribute_colocates_keys(self):
        from repro.ops.physical import PhysicalRedistribute

        db = make_small_db(t1_rows=200, t2_rows=50)
        scan, refs = self.plan_scan(db, "t2")
        redist = self.motion(
            db, PhysicalRedistribute([refs[1]]), scan, refs
        )
        executor = Executor(Cluster(db, segments=4))
        executor.metrics = executor.metrics  # default
        # run via internal exec to inspect buckets
        executor._selector_values = {}
        executor._cte_store = {}
        executor._wanted_selectors = set()
        from repro.engine.metrics import ExecutionMetrics

        executor.metrics = ExecutionMetrics(segments=4)
        result = executor._exec(redist)
        assert result.kind == SEGMENTED
        for seg, bucket in enumerate(result.buckets):
            for row in bucket:
                assert hash_bucket([row[1]], 4) == seg


# ----------------------------------------------------------------------
# Routing, sorting and output rows without a Python call per row
# ----------------------------------------------------------------------

#: Key values of every class a column may hold; ``1`` / ``1.0`` /
#: ``True`` are equal (one memo key) but must keep distinct hashes.
KEY_VALUES = st.one_of(
    st.integers(-50, 50),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, False]),
)


def reference_buckets(rows, positions, segments):
    """Row-by-row :func:`hash_bucket`, the routing definition."""
    buckets = [[] for _ in range(segments)]
    for row in rows:
        buckets[hash_bucket([row[p] for p in positions], segments)].append(row)
    return buckets


class TestRouting:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.tuples(KEY_VALUES, KEY_VALUES, st.integers()), max_size=40),
        positions=st.sampled_from([[0], [1], [0, 1], [1, 0]]),
        segments=st.sampled_from([1, 8]),
    )
    def test_routing_equals_hash_bucket(self, rows, positions, segments):
        cluster = Cluster(db=None, segments=segments)
        assert cluster.distribute_rows(rows, positions) == reference_buckets(
            rows, positions, segments
        )

    @pytest.mark.parametrize("positions", [[0], [0, 1]])
    def test_equal_values_of_three_classes_keep_their_hashes(self, positions):
        rows = [(1, "k"), (1.0, "k"), (True, "k")] * 3
        cluster = Cluster(db=None, segments=8)
        assert cluster.distribute_rows(rows, positions) == reference_buckets(
            rows, positions, 8
        )
        assert len({stable_hash(1), stable_hash(1.0), stable_hash(True)}) == 3

    def test_unhashable_value_routes_by_stable_hash(self):
        rows = [(["a"], 1), (["b"], 2), ({"c": 1}, 3)]
        cluster = Cluster(db=None, segments=8)
        for positions in ([0], [1, 0]):
            assert cluster.distribute_rows(rows, positions) == reference_buckets(
                rows, positions, 8
            )

    def test_chained_buckets_keep_bucket_then_row_order(self):
        parts = [[(i, j) for j in range(5)] for i in range(4)]
        cluster = Cluster(db=None, segments=8)
        flat = [row for part in parts for row in part]
        assert cluster.distribute_rows(
            chain.from_iterable(parts), [1]
        ) == cluster.distribute_rows(flat, [1])

    def test_negative_zero_hashes_as_zero_in_every_process_history(self):
        # -0.0 and 0.0 are one memo key: whichever a process hashes first
        # must not decide the other's hash.  A fresh interpreter hashes
        # -0.0 before 0.0.
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from repro.engine.cluster import stable_hash; "
            "print(stable_hash(-0.0), stable_hash(0.0))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert [int(h) for h in out] == [zlib.crc32(b"0.0")] * 2
        assert stable_hash(0.0) == stable_hash(-0.0) == zlib.crc32(b"0.0")


def reference_sort(rows, cols_, keys):
    """The sort ``_sort_rows`` replaced: one ``(v is None, v)`` key per
    pass, least significant key first."""
    index = {c.id: i for i, c in enumerate(cols_)}
    out = list(rows)
    for key in reversed(list(keys)):
        pos = index[key.col_id]
        out.sort(key=lambda r: (r[pos] is None, r[pos]), reverse=not key.ascending)
    return out


class TestSortRows:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(0, 3)),
                st.one_of(st.none(), st.text("ab", max_size=2)),
            ),
            max_size=30,
        ),
        keys=st.lists(
            st.tuples(st.sampled_from([0, 1]), st.booleans()),
            min_size=1, max_size=3,
        ),
    )
    def test_sort_equals_the_none_first_key_sort(self, values, keys):
        # The third column is the input position, so ties that move show.
        rows = [v + (i,) for i, v in enumerate(values)]
        cs = cols("a", "b", "i")
        sort_keys = [SortKey(col, asc) for col, asc in keys]
        assert _sort_rows(rows, cs, sort_keys) == reference_sort(rows, cs, sort_keys)

    @pytest.mark.parametrize("ascending", [True, False])
    def test_nulls_keep_input_order_on_their_side(self, ascending):
        a, i = cols("a", "i")
        rows = [(None, 0), (2, 1), (None, 2), (1, 3), (2, 4), (None, 5)]
        out = _sort_rows(rows, [a, i], [SortKey(0, ascending)])
        assert out == reference_sort(rows, [a, i], [SortKey(0, ascending)])
        nulls = [(None, 0), (None, 2), (None, 5)]
        assert out == ([(1, 3), (2, 1), (2, 4)] + nulls if ascending
                       else nulls + [(2, 1), (2, 4), (1, 3)])


class TestOutputRows:
    @pytest.mark.parametrize("segments", [1, 4])
    @pytest.mark.parametrize("sql", [
        "SELECT * FROM t2",
        "SELECT b FROM t2",
        "SELECT b, a FROM t2",
        "SELECT a FROM t2 UNION ALL SELECT b FROM t2",
    ])
    def test_mutating_returned_rows_leaves_the_next_execution_alone(self, segments, sql):
        db = make_small_db(t1_rows=20, t2_rows=30)
        with repro.connect(db, segments=segments, enable_plan_cache=True) as session:
            first = session.execute(sql).rows
            expected = list(first)
            first.clear()
            first.append(("junk",))
            again = session.execute(sql).rows
            assert again == expected
            assert again is not first
