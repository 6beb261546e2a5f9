"""Extracted plans are immutable, and the plan cache shares them.

``PlanCache.lookup`` used to return ``copy.deepcopy(entry.plan)`` to
protect the stored tree from one function that wrote into it
(``_rebind_plan``).  That function is gone; the cache now hands out the
stored tree itself on an exact hit and a path copy on a re-bind.  What
the defensive copy used to guarantee silently is checked here instead:

- nothing that runs a plan writes to it: for every corpus statement in
  each execution mode, through EXPLAIN ANALYZE and through a feedback
  ingest, the pickle of the cached tree is byte-equal before and after
  (the pickle leaves out exactly the derived caches the contract on
  :class:`~repro.search.plan.PlanNode` allows);
- the pickle carries none of the child-request alternatives the
  search left on the operators, and is byte-equal to the pickle of the
  same plan extracted in a fresh process;
- a hit returns the rows of the original miss, a re-bind the rows the
  same text gets with the plan cache off;
- the second execution of a cached statement compiles nothing, in a
  session and in a fleet worker that adopted the entry from the shared
  store;
- a re-bound plan is the stored tree wherever no changed constant lies
  below, object for object, and runs the code compiled for the stored
  one: a nested-loops condition's and an index-scan residual's
  ``_row_cache`` by being the same expression, a chain's stages
  through ``fused._stage_code``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import ExecutionMode
from repro.trace import Tracer
from repro.workloads import QUERIES, build_populated_db, queries_by_id

from tests.conftest import make_small_db

SRC = Path(__file__).resolve().parents[1] / "src"

MODES = [ExecutionMode.ROW, ExecutionMode.FUSED]

#: corpus id -> (literal as the corpus has it, the same literal redrawn).
REDRAWN = {
    "star_brand": ("i.i_manufact_id = 52", "i.i_manufact_id = 7"),
    "category_by_day": ("d.d_moy = 12", "d.d_moy = 3"),
    "in_subquery_items": ("i2.i_color = 'red'", "i2.i_color = 'blue'"),
    "scalar_totals": ("i.i_category = 'Music'", "i.i_category = 'Books'"),
    "not_exists_returns": ("d.d_qoy = 3", "d.d_qoy = 1"),
    "store_revenue_vs_avg": ("agg.revenue > 900", "agg.revenue > 700"),
}


def redrawn_sql(query_id: str) -> str:
    old, new = REDRAWN[query_id]
    sql = queries_by_id()[query_id].sql
    assert sql.count(old) == 1
    return sql.replace(old, new)


def cached_session(db, **kwargs):
    return repro.connect(db, segments=8, enable_plan_cache=True, **kwargs)


def newest_entry(session):
    entries = session.orca.plan_cache._entries
    return entries[next(reversed(entries))]


def tree_key(node) -> tuple:
    return (node.op.key(), tuple(tree_key(child) for child in node.children))


@pytest.fixture(scope="module")
def uncached_rows(tpcds_db):
    """SQL text -> rows from a session that has no plan cache."""
    texts = [q.sql for q in QUERIES] + [redrawn_sql(qid) for qid in REDRAWN]
    with repro.connect(tpcds_db, segments=8) as session:
        return {sql: session.execute(sql).rows for sql in texts}


# ----------------------------------------------------------------------
# Nothing writes to a cached tree
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_corpus_execution_leaves_cached_trees_byte_equal(
    tpcds_db, uncached_rows, mode
):
    with cached_session(tpcds_db, execution_mode=mode) as session:
        for query in QUERIES:
            first = session.optimize(query.sql)
            assert first.plan_cache == "miss", query.id
            entry = newest_entry(session)
            assert first.plan is entry.plan, "store keeps the tree it is given"
            before = pickle.dumps(entry.plan)
            runs = [
                session.execute(query.sql),
                session.execute(query.sql),
                session.execute(query.sql, analyze=True),
            ]
            assert session.last_result.plan_cache == "hit", query.id
            assert session.last_result.plan is entry.plan, query.id
            assert session.last_result.analysis.render()
            assert pickle.dumps(entry.plan) == before, query.id
            for run in runs:
                assert run.rows == uncached_rows[query.sql], query.id
        stats = session.orca.plan_cache.stats()
        assert (stats["stores"], stats["rebinds"]) == (len(QUERIES), 0)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
def test_rebound_plans_return_the_uncached_rows(tpcds_db, uncached_rows, mode):
    with cached_session(tpcds_db, execution_mode=mode) as session:
        for query_id in REDRAWN:
            base = queries_by_id()[query_id].sql
            assert session.optimize(base).plan_cache == "miss"
            stored = newest_entry(session).plan
            before = pickle.dumps(stored)
            sql = redrawn_sql(query_id)
            for _ in range(2):
                rows = session.execute(sql).rows
                assert session.last_result.plan_cache == "rebind", query_id
                assert rows == uncached_rows[sql], query_id
            # ... and the entry still serves its own literal.
            assert session.execute(base).rows == uncached_rows[base], query_id
            assert session.last_result.plan is stored
            assert pickle.dumps(stored) == before, query_id


def test_feedback_ingest_leaves_cached_trees_byte_equal(tpcds_db):
    """The ingest reads node shapes and actuals; entries it stale-dates
    are dropped from the cache, never patched."""
    with cached_session(
        tpcds_db, enable_cardinality_feedback=True
    ) as session:
        for query in QUERIES[:12]:
            first = session.optimize(query.sql)
            before = pickle.dumps(first.plan)
            session.execute(query.sql)  # executes and ingests
            if session.last_result.plan_cache == "hit":
                assert session.last_result.plan is first.plan
            assert pickle.dumps(first.plan) == before, query.id
        assert session.feedback.stats()["ingests"] > 0


#: Prints ``<query id> <sha1 of the pickled plan>`` for the corpus, from
#: a process that has optimized nothing else.
FRESH_PROCESS_PICKLES = """
import hashlib, pickle
import repro
from repro.workloads import QUERIES, build_populated_db

db = build_populated_db(scale=0.05)
with repro.connect(db, segments=8, enable_plan_cache=True) as session:
    for query in QUERIES:
        plan = session.optimize(query.sql).plan
        print(query.id, hashlib.sha1(pickle.dumps(plan)).hexdigest())
"""


def test_cached_plans_pickle_as_a_fresh_process_extracts_them():
    """Physical operators keep the child-request alternatives they built
    during the search (``_alternatives``).  The pickle leaves them out,
    like the interned keys, so a fleet worker adopting a stored plan
    receives byte for byte the plan it would have extracted itself."""
    done = subprocess.run(
        [sys.executable, "-c", FRESH_PROCESS_PICKLES],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    fresh = dict(line.split() for line in done.stdout.splitlines())
    assert len(fresh) == len(QUERIES)
    kept = 0
    with cached_session(build_populated_db(scale=0.05)) as session:
        for query in QUERIES:
            session.optimize(query.sql)
            plan = newest_entry(session).plan
            kept += sum("_alternatives" in vars(n.op) for n in plan.walk())
            blob = pickle.dumps(plan)
            assert b"_alternatives" not in blob, query.id
            clone = pickle.loads(blob)
            assert not any(
                "_alternatives" in vars(n.op) for n in clone.walk()
            ), query.id
            assert hashlib.sha1(blob).hexdigest() == fresh[query.id], query.id
    assert kept > 0, "the search left no alternatives on any plan operator"


# ----------------------------------------------------------------------
# A cached statement compiles once
# ----------------------------------------------------------------------

def compiles(tracer) -> tuple[int, int]:
    return (
        tracer.count("chain_compiled"),
        sum(1 for span in tracer.spans if span.name == "fused:compile"),
    )


def test_second_execution_of_a_cached_statement_compiles_nothing(tpcds_db):
    tracer = Tracer()
    sql = queries_by_id()["star_brand"].sql
    with cached_session(tpcds_db, tracer=tracer) as session:
        session.execute(sql)
        assert session.last_result.plan_cache == "miss"
        stored = newest_entry(session).plan
        first = compiles(tracer)
        assert first[0] > 0 and first[0] == first[1]
        for _ in range(3):
            session.execute(sql)
            assert session.last_result.plan_cache == "hit"
            assert session.last_result.plan is stored
        assert compiles(tracer) == first


def test_adopted_entry_compiles_once_in_each_fleet_worker(tpcds_db):
    """Worker 1 adopts worker 0's entry from the shared store (a pickle
    carries no compiled chains), compiles it on its first execution and
    never again."""
    tracer = Tracer()
    sql = queries_by_id()["star_brand"].sql
    with repro.connect_fleet(
        tpcds_db, workers=2, segments=8, enable_plan_cache=True,
        tracer=tracer, request_timeout_seconds=60.0,
    ) as fleet:
        seen = []
        for _ in range(6):
            before = compiles(tracer)[1]
            execution = fleet.execute(sql)
            seen.append((execution.worker, compiles(tracer)[1] - before))
        stats = fleet.worker_stats()
    assert [worker for worker, _ in seen] == [0, 1] * 3
    assert seen[0][1] > 0 and seen[1][1] == seen[0][1]
    assert [n for _, n in seen[2:]] == [0, 0, 0, 0]
    assert stats[1]["plan_cache"]["shared_hits"] == 1
    assert stats[1]["plan_cache"]["misses"] == 0


# ----------------------------------------------------------------------
# A re-bind shares what it did not change
# ----------------------------------------------------------------------

@pytest.mark.parametrize("query_id", sorted(REDRAWN))
def test_rebind_shares_every_untouched_subtree(tpcds_db, query_id):
    with cached_session(tpcds_db) as session:
        base = session.optimize(queries_by_id()[query_id].sql)
        stored = newest_entry(session).plan
        assert base.plan is stored
        rebound = session.optimize(redrawn_sql(query_id))
    assert rebound.plan_cache == "rebind"
    # "d.d_moy = 3" is rendered "(d.d_moy#9 = 3)".
    was, now = (" ".join(text.split()[1:]) + ")" for text in REDRAWN[query_id])
    assert now in rebound.plan.explain() and was in stored.explain()
    assert rebound.plan.explain() != stored.explain()
    assert rebound.plan is not stored
    pairs = list(zip(stored.walk(), rebound.plan.walk()))
    assert len(pairs) == len(list(stored.walk()))
    shared = 0
    for old, new in pairs:
        untouched = tree_key(old) == tree_key(new)
        assert (new is old) == untouched, (old, new)
        # An operator is rebuilt only around a changed constant.
        assert (new.op is old.op) == (new.op == old.op), (old, new)
        shared += untouched
    assert 0 < shared < len(pairs)


def op_named(plan, name):
    (node,) = [n for n in plan.walk() if n.op.name == name]
    return node.op


def test_rebind_shares_untouched_expressions_and_their_closures():
    from repro.engine import fused

    db = make_small_db(t1_rows=800, t2_rows=300)
    template = (
        "SELECT a + 1 AS a1, b FROM t2 WHERE a > {} AND b < {} ORDER BY a1, b"
    )
    with cached_session(db) as session:
        session.execute(template.format(10, 500))
        stored = newest_entry(session).plan
        old = op_named(stored, "Filter")
        kept, changed = old.predicate.children
        compiled = len(fused._stage_code)

        rows = session.execute(template.format(10, 600)).rows
        assert session.last_result.plan_cache == "rebind"
        plan = session.last_result.plan
        new = op_named(plan, "Filter")
        # Rebuilt around the changed constant, with no stale caches ...
        assert new is not old and new.key() != old.key()
        assert new.predicate.children[1] is not changed
        assert new.predicate.children[1].right.value == 600
        assert new.predicate.children[1].key()[3] == ("lit", "int4", 600)
        assert changed.right.value == 500
        # ... the sibling conjunct, the operator above (whose node had to
        # be rebuilt) and the node below are the stored objects, and the
        # filter -> project chain, whose source spells no literal, is
        # assembled from the code compiled for the first text.
        assert new.predicate.children[0] is kept
        assert op_named(plan, "Project") is op_named(stored, "Project")
        assert len(fused._stage_code) == compiled
        (scan,) = [n for n in stored.walk() if n.op.name == "TableScan"]
        assert any(n is scan for n in plan.walk())
    with repro.connect(db, segments=8) as plain:
        assert rows == plain.execute(template.format(10, 600)).rows


@pytest.mark.parametrize("op_name, attr, template", ids=["nl", "index"], argvalues=[
    ("NLJoin", "condition",
     "SELECT count(*) FROM t1, t2 WHERE t1.b < t2.b AND t2.a > {}"),
    ("IndexScan", "residual",
     "SELECT t1.a, t2.b FROM t1, t2 WHERE t1.a = t2.a AND t1.b = 7 "
     "AND t1.c <> 'x' AND t2.b > {} ORDER BY t1.a, t2.b"),
])
def test_rebind_keeps_what_was_compiled_outside_a_chain(
    op_name, attr, template
):
    """A nested-loops condition and an index-scan residual are compiled
    on their own and kept in the expression's ``_row_cache``; a re-bind
    that changes a constant elsewhere shares the expression, so it
    shares the loop or closure too and compiles nothing."""
    db = make_small_db(t1_rows=800, t2_rows=300)
    with cached_session(db) as session:
        session.execute(template.format(10))
        stored = newest_entry(session).plan
        expr = getattr(op_named(stored, op_name), attr)
        compiled = dict(vars(expr)["_row_cache"])
        assert compiled

        rows = session.execute(template.format(40)).rows
        assert session.last_result.plan_cache == "rebind"
        plan = session.last_result.plan
        assert plan is not stored
        assert op_named(plan, op_name) is op_named(stored, op_name)
        cache = vars(getattr(op_named(plan, op_name), attr))["_row_cache"]
        assert cache.keys() == compiled.keys()
        assert all(cache[key] is compiled[key] for key in compiled)
    with repro.connect(db, segments=8) as plain:
        assert rows == plain.execute(template.format(40)).rows


def test_fused_stage_code_is_compiled_once_per_source(tpcds_db):
    """A re-bound plan recompiles its chains, but the generated source
    holds no literal, so the code objects come from the memo."""
    from repro.engine import fused

    with cached_session(tpcds_db) as session:
        session.execute(queries_by_id()["star_brand"].sql)
        size = len(fused._stage_code)
        assert size > 0
        session.execute(redrawn_sql("star_brand"))
        assert session.last_result.plan_cache == "rebind"
        assert len(fused._stage_code) == size
        for source, code in fused._stage_code.items():
            assert "def _stage(" in source and code.co_filename == "<fused-pipeline>"
