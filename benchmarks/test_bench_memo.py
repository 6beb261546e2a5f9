"""Memo mechanics: search-space growth and request-caching effectiveness.

Section 4.1's claim that "the recursive structure of the Memo allows
compact encoding of a huge space of possible plans": over join chains of
increasing length, the number of *encoded* plans grows combinatorially
while groups/group-expressions grow polynomially.  Also measures the
group hash tables' request caching (identical optimization requests are
computed once).
"""

from __future__ import annotations

import random

import pytest

from repro.catalog import Column, Database, INT, Table
from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.props.distribution import SINGLETON
from repro.props.required import RequiredProps
from repro.verify.taqo import count_plans

CHAIN_LENGTHS = (2, 3, 4, 5, 6)


@pytest.fixture(scope="module")
def chain_db():
    rng = random.Random(3)
    db = Database()
    for i in range(max(CHAIN_LENGTHS)):
        db.create_table(Table(
            f"r{i}", [Column("k", INT), Column("v", INT)],
            distribution_columns=("k",),
        ))
        db.insert(f"r{i}", [
            (rng.randint(0, 200), rng.randint(0, 100)) for _ in range(400)
        ])
    db.analyze()
    return db


def chain_sql(n: int) -> str:
    tables = ", ".join(f"r{i}" for i in range(n))
    conds = " AND ".join(f"r{i}.k = r{i + 1}.k" for i in range(n - 1))
    return f"SELECT r0.v FROM {tables} WHERE {conds}"


@pytest.fixture(scope="module")
def growth(chain_db):
    orca = Orca(chain_db, config=OptimizerConfig(segments=8))
    rows = []
    for n in CHAIN_LENGTHS:
        result = orca.optimize(chain_sql(n))
        space = count_plans(
            result.memo, result.memo.root, RequiredProps(SINGLETON)
        )
        rows.append({
            "n": n,
            "groups": result.search_stats.num_groups,
            "gexprs": result.search_stats.num_gexprs,
            "plans": space,
            "jobs": result.search_stats.jobs_executed,
        })
    return rows


def test_memo_growth_table(growth, benchmark, chain_db):
    print("\n=== Memo growth over join chains ===")
    print(f"{'joins':>6s} {'groups':>7s} {'gexprs':>7s} "
          f"{'encoded plans':>14s} {'jobs':>8s}")
    for row in growth:
        print(
            f"{row['n'] - 1:6d} {row['groups']:7d} {row['gexprs']:7d} "
            f"{row['plans']:14.0f} {row['jobs']:8d}"
        )
    orca = Orca(chain_db, config=OptimizerConfig(segments=8))
    benchmark(lambda: orca.optimize(chain_sql(4)))

    # plan space grows much faster than the memo encoding it
    first, last = growth[0], growth[-1]
    plan_growth = last["plans"] / max(first["plans"], 1)
    gexpr_growth = last["gexprs"] / max(first["gexprs"], 1)
    assert plan_growth > gexpr_growth * 5


def test_request_caching_effectiveness(chain_db, benchmark):
    """Re-optimizing within a warm engine reuses every context."""
    from repro.memo import Memo
    from repro.search.engine import SearchEngine
    from repro.sql.translator import Translator
    from repro.xforms.normalization import preprocess
    from repro.ops.scalar import ColumnFactory

    config = OptimizerConfig(segments=8)
    factory = ColumnFactory()
    translator = Translator(chain_db, factory)
    query = translator.translate_sql(chain_sql(4))
    tree = preprocess(query.tree, config, chain_db.stats, factory)
    memo = Memo()
    memo.set_root(memo.insert(tree))
    engine = SearchEngine(memo, config, factory, chain_db.stats)
    req = RequiredProps(SINGLETON)
    engine.optimize(req)
    cold_jobs = engine.jobs_executed
    cold_xforms = engine.xform_count

    def warm_rerun():
        before = engine.jobs_executed
        engine._run_stage(req, None, None)
        return engine.jobs_executed - before

    warm_jobs = benchmark.pedantic(warm_rerun, rounds=1, iterations=1)
    warm_xforms = engine.xform_count - cold_xforms
    print(f"\ncold optimization: {cold_jobs} jobs ({cold_xforms} rule "
          f"applications); warm re-optimization: {warm_jobs} jobs "
          f"({warm_xforms} rule applications)")
    # warm reruns re-verify costs bottom-up (stale-epoch recomputation is
    # what makes multi-stage optimization correct) but never re-derive
    # the logical space: zero new rule applications, fewer jobs.
    assert warm_xforms == 0
    assert warm_jobs < cold_jobs


def test_duplicate_detection_keeps_memo_small(chain_db, benchmark):
    """Join commutativity + associativity generate overlapping shapes;
    duplicate detection must fold them (gexprs far below the number of
    rule applications)."""
    orca = Orca(chain_db, config=OptimizerConfig(segments=8))
    result = benchmark.pedantic(
        lambda: orca.optimize(chain_sql(5)), rounds=1, iterations=1
    )
    print(f"\nxform applications: {result.search_stats.xform_count}, "
          f"group expressions: {result.search_stats.num_gexprs}")
    assert result.search_stats.num_gexprs < result.search_stats.xform_count * 4
