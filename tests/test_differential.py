"""Differential testing: random queries through both optimizers.

A seeded generator produces random (but valid) queries over the small
schema; each is optimized by Orca and by the legacy Planner and executed
on the same simulated cluster.  The two independent planning paths must
agree on results — the cheapest large-surface correctness oracle we
have, in the spirit of the paper's emphasis on built-in verifiability.
Both share this repository's executor, so every seed's rows are also
held to sqlite, in each execution mode.
"""

from __future__ import annotations

import random

import pytest

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.props.distribution import SingletonDist

from tests.conftest import make_small_db, rows_equal
from tests.test_sqlite_oracle import load_oracle

COLUMNS = {"t1": ["a", "b"], "t2": ["a", "b"]}
TEXT_VALUES = ["x", "y", "z"]


class QueryGenerator:
    """Generates random valid SQL over the t1/t2 schema."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def predicate(self, alias: str, table: str) -> str:
        rng = self.rng
        kind = rng.randrange(6)
        col = f"{alias}.{rng.choice(COLUMNS[table])}"
        if kind == 0:
            return f"{col} {rng.choice(['<', '<=', '>', '>=', '='])} " \
                   f"{rng.randint(0, 1000)}"
        if kind == 1:
            lo = rng.randint(0, 500)
            return f"{col} BETWEEN {lo} AND {lo + rng.randint(0, 300)}"
        if kind == 2:
            values = ", ".join(
                str(rng.randint(0, 1000)) for _ in range(rng.randint(1, 4))
            )
            return f"{col} IN ({values})"
        if kind == 3 and table == "t1":
            return f"{alias}.c = '{rng.choice(TEXT_VALUES)}'"
        if kind == 4:
            return f"NOT {col} > {rng.randint(0, 1000)}"
        return f"({col} < {rng.randint(0, 500)} OR " \
               f"{col} > {rng.randint(500, 1000)})"

    def generate(self) -> str:
        rng = self.rng
        shape = rng.randrange(4)
        if shape == 0:
            # single table scan + filters
            preds = " AND ".join(
                self.predicate("t1", "t1") for _ in range(rng.randint(1, 3))
            )
            return (
                f"SELECT a, b FROM t1 WHERE {preds} "
                f"ORDER BY a, b LIMIT {rng.randint(5, 60)}"
            )
        if shape == 1:
            # join + filters
            join_col = rng.choice(["a", "b"])
            preds = [
                f"t1.{join_col} = t2.{rng.choice(['a', 'b'])}",
                self.predicate("t1", "t1"),
            ]
            if rng.random() < 0.5:
                preds.append(self.predicate("t2", "t2"))
            return (
                "SELECT t1.a, t2.b FROM t1, t2 WHERE "
                + " AND ".join(preds)
                + f" ORDER BY t1.a, t2.b LIMIT {rng.randint(5, 60)}"
            )
        if shape == 2:
            # aggregation
            pred = self.predicate("t1", "t1")
            agg = rng.choice(
                ["count(*)", "sum(t1.b)", "min(t1.a)", "max(t1.b)",
                 "avg(t1.b)"]
            )
            return (
                f"SELECT t1.c, {agg} AS m FROM t1 WHERE {pred} "
                "GROUP BY t1.c ORDER BY t1.c"
            )
        # subquery
        sub_kind = rng.choice(["IN", "EXISTS", "NOT EXISTS"])
        if sub_kind == "IN":
            return (
                f"SELECT a FROM t1 WHERE a IN "
                f"(SELECT b FROM t2 WHERE {self.predicate('t2', 't2')}) "
                "ORDER BY a LIMIT 50"
            )
        return (
            f"SELECT a, b FROM t1 WHERE {sub_kind} "
            f"(SELECT 1 FROM t2 WHERE t2.b = t1.a AND "
            f"{self.predicate('t2', 't2')}) ORDER BY a, b LIMIT 50"
        )


@pytest.fixture(scope="module")
def env():
    db = make_small_db(t1_rows=2000, t2_rows=300)
    config = OptimizerConfig(segments=8)
    return (
        db,
        Orca(db, config=config),
        LegacyPlanner(db, config),
        Cluster(db, segments=8),
    )


@pytest.fixture(scope="module")
def sqlite(env):
    oracle = load_oracle().Oracle(env[0])
    yield oracle
    oracle.close()


@pytest.mark.parametrize("seed", range(40))
def test_random_query_differential(env, seed):
    db, orca, planner, cluster = env
    sql = QueryGenerator(seed).generate()
    orca_result = orca.optimize(sql)
    planner_result = planner.optimize(sql)

    orca_out = Executor(cluster).execute(
        orca_result.plan, orca_result.output_cols
    )
    planner_out = Executor(cluster).execute(
        planner_result.plan, planner_result.output_cols
    )
    assert rows_equal(orca_out.rows, planner_out.rows), sql

    # Structural invariants of the extracted plan.
    assert orca_result.plan.cost > 0
    assert isinstance(orca_result.plan.delivered.dist, SingletonDist)
    assert 0.0 <= orca_result.stats_confidence <= 1.0


@pytest.mark.parametrize("seed", range(40, 52))
def test_random_query_deterministic(env, seed):
    """Same query, same seed, twice: identical plan and identical rows."""
    db, orca, _planner, cluster = env
    sql = QueryGenerator(seed).generate()
    r1 = orca.optimize(sql)
    r2 = orca.optimize(sql)
    assert r1.plan.explain() == r2.plan.explain()
    out1 = Executor(cluster).execute(r1.plan, r1.output_cols)
    out2 = Executor(cluster).execute(r2.plan, r2.output_cols)
    assert out1.rows == out2.rows


@pytest.mark.parametrize("mode", list(ExecutionMode), ids=lambda m: m.value)
@pytest.mark.parametrize("seed", range(52))
def test_random_query_matches_sqlite(env, sqlite, seed, mode):
    _db, orca, _planner, cluster = env
    sql = QueryGenerator(seed).generate()
    result = orca.optimize(sql)
    out = Executor(cluster, execution_mode=mode).execute(
        result.plan, result.output_cols
    )
    want = sqlite.expected(sql)
    assert want.source == "sqlite", sql
    assert load_oracle().compare(out.rows, want) == "", sql
