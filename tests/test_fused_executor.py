"""Fused-executor differential: fused mode must be *identical* to row mode.

The compiled engine turns breaker-free pipelines (filter / project /
hash-join-probe chains, optionally sunk into an aggregation) into
generated Python loop functions and streams rows through them with
nothing materialized in between.  Row mode is the same engine with
fusion off — one operator per compiled stage, every intermediate
materialized — and the two must agree exactly: same rows in the same
order, the same :class:`~repro.engine.metrics.ExecutionMetrics` field
by field (including the per-segment work vector), and the same per-node
:class:`~repro.telemetry.analyze.NodeStats` under EXPLAIN ANALYZE.  No
tolerance anywhere — both modes charge each plan node through the same
closed-form helpers (see the per-node ledger in DESIGN.md §3j).  Whether
the rows are *right* is held to sqlite in ``tests/test_sqlite_oracle.py``.

Covered four ways: pipeline-segmentation unit tests (every breaker kind
starts a new pipeline), a designed query set pinning every physical
operator, the full TPC-DS workload corpus (plus a warm-scan-cache
second pass over a shared cluster), and a Hypothesis property over
randomly composed queries.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import INT, Column, Database, Table
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.executor import REPLICATED, SEGMENTED
from repro.engine import fused
from repro.engine.fused import fused_chains
from repro.engine.parallel import ChainSpec, _compile_spec
from repro.engine.pipeline import (
    SINK_OPS,
    STREAMING_OPS,
    fusable_pipelines,
    split_pipelines,
)
from repro.ops import physical as ph
from repro.ops.logical import JoinKind
from repro.ops.scalar import ColRef, ColRefExpr, Comparison, Literal
from repro.optimizer import Orca
from repro.trace import Tracer
from repro.workloads import QUERIES, build_populated_db

from tests.conftest import make_partitioned_db, make_small_db
from tests.helpers import truncate
from tests.test_sqlite_oracle import load_oracle


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


def plan_op_names(plan) -> set[str]:
    return {node.op.name for node in _walk(plan)}


def assert_identical(row, fused, plan):
    """Field-by-field comparison of two ExecutionResults (analyze=True)."""
    assert fused.rows == row.rows
    assert fused.columns == row.columns
    for f in dataclasses.fields(row.metrics):
        assert getattr(fused.metrics, f.name) == getattr(row.metrics, f.name), (
            f"metrics field {f.name!r} diverged"
        )
    for node in _walk(plan):
        rs = row.analysis.stats_for(node)
        fs = fused.analysis.stats_for(node)
        for f in dataclasses.fields(rs):
            assert getattr(fs, f.name) == getattr(rs, f.name), (
                f"node {node.op.name}: stats field {f.name!r} diverged"
            )
    assert fused.analysis.render() == row.analysis.render()


def assert_fused_identical(db, result, segments: int = 8):
    """Execute ``result.plan`` in row and fused modes, compare everything."""
    row = Executor(
        Cluster(db, segments=segments), execution_mode=ExecutionMode.ROW
    ).execute(result.plan, result.output_cols, analyze=True)
    fused = Executor(
        Cluster(db, segments=segments), execution_mode=ExecutionMode.FUSED
    ).execute(result.plan, result.output_cols, analyze=True)
    assert_identical(row, fused, result.plan)
    return row


# ---------------------------------------------------------------------------
# Pipeline segmentation: every breaker kind starts a new pipeline.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_db():
    return make_small_db(t1_rows=1500, t2_rows=300)


@pytest.fixture(scope="module")
def small_orca(small_db):
    return Orca(small_db, config=OptimizerConfig(segments=8))


class TestPipelineSegmentation:
    def _pipelines(self, orca, sql):
        plan = orca.optimize(sql).plan
        pipelines = split_pipelines(plan)
        # Partition property: every plan node is a member of exactly
        # one pipeline; a sink aggregation that feeds a streaming chain
        # is additionally that chain's source, and the top of its own.
        seen = Counter(id(n) for p in pipelines for n in p.nodes())
        also_source = {
            id(p.source) for p in pipelines
            if p.ops and isinstance(p.source.op, SINK_OPS)
        }
        assert seen == {
            id(n): 2 if id(n) in also_source else 1 for n in _walk(plan)
        }
        assert also_source <= {id(p.top) for p in pipelines if p.ops}
        # Chain members are streaming ops (or a terminating agg sink);
        # breakers only ever appear as pipeline sources.
        for p in pipelines:
            for i, member in enumerate(p.ops):
                if isinstance(member.op, SINK_OPS):
                    assert member is p.ops[-1], (
                        "aggregation may only sink a pipeline"
                    )
                else:
                    assert isinstance(member.op, STREAMING_OPS)
        return plan, pipelines

    def _pipeline_of(self, pipelines, node):
        for p in pipelines:
            if any(n is node for n in p.nodes()):
                return p
        raise AssertionError(f"{node!r} not in any pipeline")

    def test_join_build_side_breaks(self, small_orca):
        plan, pipelines = self._pipelines(
            small_orca, "SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a"
        )
        joins = [n for n in _walk(plan)
                 if isinstance(n.op, ph.PhysicalHashJoin)]
        assert joins
        for join in joins:
            probe, build = join.children
            jp = self._pipeline_of(pipelines, join)
            # The probe side may continue the join's own pipeline; the
            # build side never does.
            assert all(n is not build for n in jp.nodes())

    def test_agg_breaks_below_and_sinks_above(self, small_orca):
        plan, pipelines = self._pipelines(
            small_orca,
            "SELECT t1.c, count(*) FROM t1, t2 "
            "WHERE t1.a = t2.a AND t1.b > 10 GROUP BY t1.c",
        )
        aggs = [n for n in _walk(plan) if isinstance(n.op, SINK_OPS)]
        assert aggs
        for agg in aggs:
            p = self._pipeline_of(pipelines, agg)
            if p.ops and agg in p.ops:
                # When an agg joins a chain it terminates it.
                assert p.top is agg
            # Nothing below an agg shares its pipeline except via the
            # chain it sinks; the agg's input subtree root, if the agg
            # is a bare source, is segmented separately.
            if p.source is agg:
                assert p.ops == [] or p.ops[0] is not agg

    @pytest.mark.parametrize("sql", [
        "SELECT c, count(*), sum(b) FROM t1 GROUP BY c HAVING count(*) > 10",
        "SELECT sum(b) * 2, count(*) + 1 FROM t1 WHERE b > 5",
        "SELECT t2.b, agg.n FROM t2, (SELECT a, count(*) AS n FROM t1 "
        "GROUP BY a) agg WHERE agg.a = t2.a AND agg.n > 1",
    ])
    def test_agg_under_a_streaming_chain_is_fused(
        self, small_db, small_orca, sql
    ):
        """An aggregation reached from a filter, project or join probe
        above it (every HAVING) is that chain's source *and* the sink on
        top of the next pipeline down, so it is compiled like any other:
        there is no aggregation handler to run."""
        plan, pipelines = self._pipelines(small_orca, sql)
        fed = [
            p.source for p in pipelines
            if p.ops and isinstance(p.source.op, SINK_OPS)
        ]
        assert fed, "plan lost its aggregation under a streaming operator"
        chains = fused_chains(plan)
        for agg in _walk(plan):
            if isinstance(agg.op, SINK_OPS):
                assert id(agg) in chains and chains[id(agg)].top is agg

        def run(mode):
            return Executor(
                Cluster(small_db, segments=8), execution_mode=mode
            ).execute(plan, analyze=True)

        row = run(ExecutionMode.ROW)
        # No aggregation has a handler to fall back to, in either mode.
        assert not set(SINK_OPS) & set(Executor._HANDLERS)
        assert_identical(row, run(ExecutionMode.FUSED), plan)

    @pytest.mark.parametrize("sql, breaker", [
        ("SELECT a, b FROM t1 WHERE b > 10 ORDER BY b, a",
         ph.PhysicalSort),
        ("SELECT a, b FROM t1 WHERE b > 10 ORDER BY b, a LIMIT 5",
         ph.PhysicalLimit),
        ("SELECT t1.b, t2.b FROM t1, t2 WHERE t1.b = t2.b",
         ph.PhysicalRedistribute),
        ("SELECT count(*) FROM t1, t2 WHERE t1.b < t2.b",
         ph.PhysicalNLJoin),
    ])
    def test_breaker_starts_new_pipeline(self, small_orca, sql, breaker):
        plan, pipelines = self._pipelines(small_orca, sql)
        nodes = [n for n in _walk(plan) if isinstance(n.op, breaker)]
        assert nodes, f"plan lost its {breaker.__name__}"
        for node in nodes:
            p = self._pipeline_of(pipelines, node)
            assert p.source is node, (
                f"{breaker.__name__} must source its own pipeline"
            )

    def test_motion_kinds_are_breakers(self, small_orca):
        plan, pipelines = self._pipelines(
            small_orca,
            "SELECT t1.b, t2.b FROM t1, t2 WHERE t1.b = t2.b "
            "ORDER BY t1.b LIMIT 30",
        )
        motions = [
            n for n in _walk(plan)
            if isinstance(n.op, (ph.PhysicalGather, ph.PhysicalGatherMerge,
                                 ph.PhysicalRedistribute,
                                 ph.PhysicalBroadcast))
        ]
        assert motions
        for node in motions:
            assert self._pipeline_of(pipelines, node).source is node

    @pytest.mark.parametrize("sql", ids=["join", "filter_project"], argvalues=[
        "SELECT t1.a FROM t1, t2 WHERE t1.a = t2.a AND t1.b > 10",
        "SELECT a, b * 2 + 1 FROM t1 WHERE b > 40 AND c <> 'x'",
    ])
    def test_every_pipeline_with_ops_is_fusable(self, small_orca, sql):
        """No policy holds a chain back from the compiler: a pure
        filter / project chain is compiled like one with a join or a
        sink, and only op-less pipelines (a breaker or leaf on its own)
        are left to the handlers."""
        plan = small_orca.optimize(sql).plan
        pipelines = split_pipelines(plan)
        fusable = fusable_pipelines(plan)
        assert [p.describe() for p in fusable] == [
            p.describe() for p in pipelines if p.ops
        ]
        assert fusable
        streaming = {
            id(n) for n in _walk(plan)
            if isinstance(n.op, STREAMING_OPS + SINK_OPS)
        }
        assert streaming == {id(n) for p in fusable for n in p.ops}
        assert set(fused_chains(plan)) == {id(p.top) for p in fusable}


# ---------------------------------------------------------------------------
# Designed coverage: every physical operator appears in at least one plan.
# ---------------------------------------------------------------------------

OPERATOR_QUERIES = {
    "scan_filter_project": (
        "SELECT a, b * 2 + 1 FROM t1 WHERE b > 40 AND c <> 'x'",
        {"Filter"},
    ),
    "index_scan": (
        "SELECT a FROM t1 WHERE b = 7",
        {"IndexScan"},
    ),
    "hash_join": (
        "SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a",
        {"HashJoin"},
    ),
    "left_join": (
        "SELECT t1.a, t2.b FROM t1 LEFT JOIN t2 ON t1.a = t2.a "
        "ORDER BY t1.a, t2.b LIMIT 50",
        {"HashJoin"},
    ),
    "nl_join": (
        "SELECT count(*) FROM t1, t2 WHERE t1.b < t2.b",
        {"NLJoin"},
    ),
    "hash_agg": (
        "SELECT c, sum(b), count(*), avg(b), min(b), max(b), "
        "count(DISTINCT a) FROM t1 GROUP BY c",
        {"HashAgg", "StreamAgg"},
    ),
    "scalar_agg": (
        "SELECT sum(b), min(c) FROM t1 WHERE a > 900",
        {"HashAgg", "StreamAgg"},
    ),
    "sort_limit": (
        "SELECT a, b FROM t1 ORDER BY b, a LIMIT 25",
        {"Sort", "Limit"},
    ),
    "semi_join": (
        "SELECT count(*) FROM t1 WHERE a IN (SELECT a FROM t2)",
        set(),
    ),
    "anti_join": (
        "SELECT count(*) FROM t1 WHERE a NOT IN (SELECT a FROM t2)",
        set(),
    ),
    "cte": (
        "WITH base AS (SELECT a, b FROM t1 WHERE b > 50) "
        "SELECT x.a, y.b FROM base x, base y WHERE x.a = y.a "
        "ORDER BY x.a, y.b LIMIT 40",
        set(),
    ),
}


class TestOperatorCoverage:
    @pytest.mark.parametrize("name", sorted(OPERATOR_QUERIES))
    def test_operator_identical(self, small_db, small_orca, name):
        sql, expected_ops = OPERATOR_QUERIES[name]
        result = small_orca.optimize(sql)
        plan_ops = plan_op_names(result.plan)
        assert not expected_ops or expected_ops & plan_ops, (
            f"plan for {name!r} lost its target operator: {plan_ops}"
        )
        assert_fused_identical(small_db, result)

    def test_dynamic_scan_partition_elimination(self):
        db = make_partitioned_db()
        orca = Orca(db, config=OptimizerConfig(segments=8))
        result = orca.optimize(
            "SELECT k, sum(v) FROM fact WHERE day BETWEEN 150 AND 420 "
            "GROUP BY k ORDER BY k"
        )
        row = assert_fused_identical(db, result)
        assert 0 < row.metrics.partitions_scanned < 10

    def test_motion_heavy_redistribution(self, small_db, small_orca):
        result = small_orca.optimize(
            "SELECT t1.b, t2.b FROM t1, t2 WHERE t1.b = t2.b "
            "ORDER BY t1.b LIMIT 30"
        )
        row = assert_fused_identical(small_db, result)
        assert row.metrics.rows_moved > 0


# ---------------------------------------------------------------------------
# The full TPC-DS workload corpus, plus warm-scan-cache re-execution.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpcds_orca(tpcds_db):
    return Orca(tpcds_db, config=OptimizerConfig(segments=8))


@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.id)
def test_tpcds_corpus_identical(tpcds_db, tpcds_orca, query):
    result = tpcds_orca.optimize(query.sql)
    assert_fused_identical(tpcds_db, result)


def test_warm_scan_cache_stays_identical(tpcds_db, tpcds_orca):
    """One shared fused cluster across many queries: the scan cache
    serves repeated base-table layouts, and rows/metrics must stay
    byte-identical to a cold row-mode run of each query."""
    shared = Cluster(tpcds_db, segments=8)
    for query in QUERIES[:8]:
        result = tpcds_orca.optimize(query.sql)
        for _ in range(2):  # second pass hits the warm cache
            fused = Executor(
                shared, execution_mode=ExecutionMode.FUSED
            ).execute(result.plan, result.output_cols, analyze=True)
            row = Executor(
                Cluster(tpcds_db, segments=8),
                execution_mode=ExecutionMode.ROW,
            ).execute(result.plan, result.output_cols, analyze=True)
            assert_identical(row, fused, result.plan)
    assert shared.scan_cache, "corpus should have populated the scan cache"


# ---------------------------------------------------------------------------
# Stage shapes: one loop nest per chain.
# ---------------------------------------------------------------------------


def _probes(nodes) -> list[int]:
    return [id(n) for n in nodes if type(n.op) is ph.PhysicalHashJoin]


def test_corpus_chains_compile_to_one_stage(tpcds_db, tpcds_orca):
    """Every compiled chain of the corpus is one stage that nests all of
    the chain's hash-join probes; no joined row is materialized between
    two probes of one chain."""
    widest: dict[str, int] = {}
    for query in QUERIES:
        result = tpcds_orca.optimize(query.sql)
        Executor(Cluster(tpcds_db, segments=8)).execute(
            result.plan, result.output_cols
        )
        for chain in fused_chains(result.plan).values():
            if chain.compiled is None:
                continue
            (stage,) = chain.compiled.stages
            assert _probes(stage.ops) == _probes(chain.ops), chain.describe()
            widest[query.id] = max(
                widest.get(query.id, 0), len(_probes(stage.ops))
            )
    assert widest["left_join_returns"] == 2
    assert widest["monthly_seq_window"] == 2


def test_a_fanning_probe_after_other_work_starts_a_stage():
    """A REPLICATED outer probing a hashed build side runs once per
    segment.  Heading its stage it fans the stage out; after a filter
    it starts a new stage, so the filter still runs once."""
    a, b, k = (ColRef(900 + i, name, INT) for i, name in enumerate("abk"))
    flt = ph.PhysicalFilter(Comparison(">", ColRefExpr(b), Literal(3, INT)))
    join = ph.PhysicalHashJoin(JoinKind.INNER, [a], [k])

    def shapes(ops, src_kind, build_kind):
        spec = ChainSpec(ops, [a, b], src_kind,
                         [(ops.index(join), [k], build_kind)])
        return [
            [type(n.op).__name__ for n in st.ops]
            for st in _compile_spec(spec).stages
        ]

    assert shapes([flt, join], REPLICATED, SEGMENTED) == [
        ["PhysicalFilter"], ["PhysicalHashJoin"],
    ]
    assert shapes([join, flt], REPLICATED, SEGMENTED) == [
        ["PhysicalHashJoin", "PhysicalFilter"],
    ]
    for src_kind, build_kind in ((SEGMENTED, SEGMENTED),
                                 (REPLICATED, REPLICATED)):
        assert shapes([flt, join], src_kind, build_kind) == [
            ["PhysicalFilter", "PhysicalHashJoin"],
        ]


@pytest.mark.parametrize("make_db, table, new_row", [
    (make_small_db, "t2", (7, 7)),
    (make_partitioned_db, "fact", (150, 7, 7)),
], ids=["plain", "partitioned"])
def test_scan_cache_follows_dml(make_db, table, new_row):
    """A cached layout is the table's rows at one row-data version: after
    an insert or a truncate the fused engine answers what the row engine
    and the catalog do, the stale entry is replaced (not kept beside the
    new one), and an ANALYZE, which moves no row, keeps the layout."""
    db = make_db()
    result = Orca(db, config=OptimizerConfig(segments=4)).optimize(
        f"SELECT count(*) FROM {table}"
    )
    tracer = Tracer()
    shared = Cluster(db, segments=4)

    def counts():
        fused = Executor(
            shared, execution_mode=ExecutionMode.FUSED, tracer=tracer
        ).execute(result.plan, result.output_cols)
        row = Executor(
            Cluster(db, segments=4), execution_mode=ExecutionMode.ROW
        ).execute(result.plan, result.output_cols)
        return fused.rows, row.rows, [(db.row_count(table),)]

    before = db.row_count(table)
    assert counts() == ([(before,)],) * 3
    entries = len(shared.scan_cache)
    db.insert(table, [new_row])
    assert counts() == ([(before + 1,)],) * 3
    truncate(db, table)
    assert counts() == ([(0,)],) * 3
    db.insert(table, [new_row, new_row])
    assert counts() == ([(2,)],) * 3
    assert len(shared.scan_cache) == entries
    hits = tracer.count("scan_cache_hit")
    db.analyze()
    assert counts() == ([(2,)],) * 3
    assert tracer.count("scan_cache_hit") == hits + 1


# ---------------------------------------------------------------------------
# Unique build sides: decided per build table, per segment, at run time.
# ---------------------------------------------------------------------------


def _signatures(plan) -> set[tuple]:
    """The uniqueness signatures the plan's probing stages ran with."""
    return {
        sig
        for chain in fused_chains(plan).values() if chain.compiled
        for stage in chain.compiled.stages
        for sig in stage.variants if sig
    }


def _matches_sqlite(db, sql, rows) -> None:
    oracle_module = load_oracle()
    oracle = oracle_module.Oracle(db)
    try:
        assert oracle_module.compare(rows, oracle.expected(sql)) == ""
    finally:
        oracle.close()


STORE_ITEM_SQL = (
    "SELECT i_category, count(*) AS n, sum(ss_sales_price) AS s "
    "FROM store_sales, item WHERE ss_item_sk = i_item_sk "
    "GROUP BY i_category ORDER BY i_category"
)


def test_build_side_uniqueness_follows_dml():
    """``item`` is unique on ``i_item_sk`` until an INSERT duplicates
    one key; the cached plan then probes that key's segment through a
    candidate list and every other segment by lookup, in one execution,
    and the rows still match sqlite and the row engine."""
    db = build_populated_db(scale=0.05)
    result = Orca(db, config=OptimizerConfig(segments=8)).optimize(
        STORE_ITEM_SQL
    )
    shared = Cluster(db, segments=8)

    def check() -> set[tuple]:
        rows = Executor(shared).execute(result.plan, result.output_cols).rows
        _matches_sqlite(db, STORE_ITEM_SQL, rows)
        assert_fused_identical(db, result)
        return _signatures(result.plan)

    assert check() == {(True,)}
    size = len(fused._stage_code)
    assert check() == {(True,)}
    assert len(fused._stage_code) == size, "a re-execution compiled code"
    db.insert("item", [db.scan("item")[0]])
    assert check() == {(True,), (False,)}


def test_window_aggregates_fold_once_compiled(small_db, small_orca, monkeypatch):
    """A window aggregate folds through the code ``_AggState`` emits,
    generated once per expression: a re-executed plan generates no
    window source, and neither mode's rows change."""
    sources: list[str] = []
    real = fused.load_generated

    def spy(src, *args, **names):
        sources.append(src)
        return real(src, *args, **names)

    monkeypatch.setattr(fused, "load_generated", spy)
    result = small_orca.optimize(
        "SELECT c, a, sum(b) OVER (PARTITION BY c ORDER BY a) AS s, "
        "avg(b) OVER (PARTITION BY c ORDER BY a) AS v, "
        "rank() OVER (PARTITION BY c ORDER BY a) AS r FROM t1"
    )
    first = assert_fused_identical(small_db, result)
    assert sum("def _window(" in src for src in sources) == 2
    sources.clear()
    assert assert_fused_identical(small_db, result).rows == first.rows
    assert sources == []


def make_keyed_db(dim_rows) -> Database:
    """``f(k, v)`` and ``d(k, w)``, both hashed on ``k`` so the join is
    colocated and every segment hashes its own slice of ``d``."""
    db = Database()
    db.create_table(Table("f", [Column("k", INT), Column("v", INT)],
                          distribution_columns=("k",)))
    db.create_table(Table("d", [Column("k", INT), Column("w", INT)],
                          distribution_columns=("k",)))
    db.insert("f", [(i % 60 if i % 17 else None, i % 7) for i in range(600)])
    db.insert("d", dim_rows)
    db.analyze()
    return db


#: SQL -> the signatures it runs with over a unique, a NULL-keyed and a
#: once-duplicated ``d`` (None: the probe always takes the list form).
KEYED_JOINS = {
    # Colocated: only the duplicate's own segment loses the lookup.
    "SELECT d.w, count(*), sum(f.v) FROM f JOIN d ON f.k = d.k GROUP BY d.w":
        ({(True,)}, {(True,)}, {(True,), (False,)}),
    "SELECT f.k, f.v, d.w FROM f LEFT JOIN d ON f.k = d.k":
        ({(True,)}, {(True,)}, {(False,)}),
    "SELECT f.k, f.v, d.w FROM f LEFT JOIN d ON f.k = d.k AND d.w > f.v":
        None,
    "SELECT count(*) FROM f WHERE EXISTS "
    "(SELECT 1 FROM d WHERE d.k = f.k AND d.w > f.v)": None,
}


@pytest.mark.parametrize("sql", sorted(KEYED_JOINS))
@pytest.mark.parametrize("dim", range(3),
                         ids=["unique", "null_keys", "one_duplicate"])
def test_null_and_duplicate_build_keys(sql, dim):
    """NULL build keys never match and leave a side unique; one
    duplicated key takes the lookup from its own table only."""
    rows = [(k, k % 5) for k in range(0, 60, 2)]
    rows += ([], [(None, 1), (None, 3)], [(4, 9)])[dim]
    db = make_keyed_db(rows)
    result = Orca(db, config=OptimizerConfig(segments=4)).optimize(sql)
    got = assert_fused_identical(db, result, segments=4)
    _matches_sqlite(db, sql, got.rows)
    want = KEYED_JOINS[sql]
    assert _signatures(result.plan) == (
        want[dim] if want is not None else {(False,)}
    )


# ---------------------------------------------------------------------------
# Property: multi-probe chains against sqlite.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def probe_db():
    """A fact table with NULL probe keys, a dimension unique on its key
    (but for a NULL), and a table whose key has duplicates and NULLs."""
    db = Database()
    db.create_table(Table(
        "fact", [Column("a", INT), Column("b", INT), Column("v", INT)],
        distribution_columns=("a",),
    ))
    db.create_table(Table(
        "dim", [Column("k", INT), Column("w", INT)],
        distribution_columns=("k",),
    ))
    db.create_table(Table(
        "dup", [Column("k", INT), Column("x", INT)],
        distribution_columns=("x",),
    ))
    db.insert("fact", [
        (i % 23, None if i % 11 == 0 else i % 13, i % 9) for i in range(400)
    ])
    db.insert("dim", [(k, k % 4) for k in range(20)] + [(None, 2)])
    db.insert("dup", [
        (None if i % 7 == 0 else i % 10, i % 6) for i in range(30)
    ])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def probe_orca(probe_db):
    return Orca(probe_db, config=OptimizerConfig(segments=4))


@pytest.fixture(scope="module")
def probe_oracle(probe_db):
    oracle = load_oracle().Oracle(probe_db)
    yield oracle
    oracle.close()


#: (table, key column, value column) of each build table.
_BUILD_TABLES = {"dim": ("k", "w"), "dup": ("k", "x")}


@st.composite
def multi_probe_sql(draw) -> str:
    joins, where = [], []
    seen = ["f.v"]
    for i in range(draw(st.integers(2, 3))):
        table = draw(st.sampled_from(sorted(_BUILD_TABLES)))
        key, val = _BUILD_TABLES[table]
        alias = f"t{i}"
        outer = draw(st.sampled_from(["f.a", "f.b"]))
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN", "EXISTS",
                                     "NOT EXISTS"]))
        on = f"{alias}.{key} = {outer}"
        if draw(st.booleans()):
            on += f" AND {alias}.{val} {draw(st.sampled_from('<>'))} f.v"
        if kind.endswith("JOIN"):
            joins.append(f"{kind} {table} {alias} ON {on}")
            seen.append(f"{alias}.{val}")
        else:
            where.append(f"{kind} (SELECT 1 FROM {table} {alias} WHERE {on})")
    if draw(st.booleans()):
        col = draw(st.sampled_from(seen[1:] or seen))
        where.append(f"({col} IS NULL OR {col} < {draw(st.integers(0, 8))})")
    value = draw(st.sampled_from(seen))
    shape = draw(st.sampled_from(["rows", "project", "scalar", "grouped"]))
    if shape == "rows":
        select, tail = f"f.a, f.b, {value}", ""
    elif shape == "project":
        select, tail = f"f.a, {value} * 2 + f.v", ""
    elif shape == "scalar":
        select, tail = f"count(*), sum({value}), max(f.b)", ""
    else:
        select, tail = f"f.b, count({value}), sum(f.v)", " GROUP BY f.b"
    sql = f"SELECT {select} FROM fact f " + " ".join(joins)
    if where:
        sql += " WHERE " + " AND ".join(where)
    return sql + tail


@settings(max_examples=200, deadline=None)
@given(sql=multi_probe_sql())
def test_multi_probe_chains_match_sqlite(
    probe_db, probe_orca, probe_oracle, sql
):
    """Two or three INNER / LEFT / EXISTS / NOT EXISTS probes over a
    unique and a duplicated, NULL-bearing build table, with or without
    residuals, a filter, a projection and an aggregate: fused equals row
    and both equal sqlite."""
    result = probe_orca.optimize(sql)
    got = assert_fused_identical(probe_db, result, segments=4)
    assert load_oracle().compare(got.rows, probe_oracle.expected(sql)) == ""


# ---------------------------------------------------------------------------
# Property: randomly composed queries stay identical in both modes.
# ---------------------------------------------------------------------------

_COMPARES = (">", "<", ">=", "<=", "=", "<>")
_AGGS = (
    "count(*)", "sum(t1.b)", "avg(t1.b)", "min(t1.b)", "max(t1.b)",
    "count(DISTINCT t1.c)", "sum(DISTINCT t1.b)", "avg(DISTINCT t1.b)",
)

#: The draws of one random query (also run by tests/test_batch_executor.py
#: on a cluster that spills).
RANDOM_QUERY = dict(
    threshold=st.integers(min_value=0, max_value=100),
    compare=st.sampled_from(_COMPARES),
    agg=st.sampled_from(_AGGS),
    grouped=st.booleans(),
    joined=st.booleans(),
    limit=st.integers(min_value=1, max_value=40),
)


def random_query_sql(threshold, compare, agg, grouped, joined, limit) -> str:
    if grouped:
        select = f"t1.c, {agg}"
        tail = "GROUP BY t1.c ORDER BY t1.c"
    else:
        select = "t1.a, t1.b, t1.b * 3 - 1"
        tail = f"ORDER BY t1.a, t1.b LIMIT {limit}"
    if joined:
        from_where = (
            f"FROM t1, t2 WHERE t1.a = t2.a AND t1.b {compare} {threshold}"
        )
    else:
        from_where = f"FROM t1 WHERE t1.b {compare} {threshold}"
    return f"SELECT {select} {from_where} {tail}"


@settings(max_examples=25, deadline=None)
@given(**RANDOM_QUERY)
def test_random_query_identical(small_db, small_orca, **draw):
    assert_fused_identical(
        small_db, small_orca.optimize(random_query_sql(**draw))
    )
