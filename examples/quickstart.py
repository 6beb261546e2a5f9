"""Quickstart: optimize and execute the paper's running example.

Builds the Section 4.1 scenario — T1 hash-distributed on T1.a, T2 on
T2.a, query ``SELECT T1.a FROM T1, T2 WHERE T1.a = T2.b ORDER BY T1.a``
— then prints the Memo (Figure 4/6), the chosen plan (the GatherMerge /
Sort / HashJoin / Redistribute shape of Figure 6), and the query result
from the simulated 16-segment cluster.

Run:  python examples/quickstart.py
"""

import random

from repro import Cluster, Database, Executor, Orca, OptimizerConfig
from repro.catalog import Column, INT, Table


def build_database() -> Database:
    rng = random.Random(7)
    db = Database()
    db.create_table(Table(
        "T1", [Column("a", INT), Column("b", INT)],
        distribution_columns=("a",),
    ))
    db.create_table(Table(
        "T2", [Column("a", INT), Column("b", INT)],
        distribution_columns=("a",),
    ))
    db.insert("T1", [
        (rng.randint(0, 500), rng.randint(0, 100)) for _ in range(2000)
    ])
    db.insert("T2", [
        (rng.randint(0, 500), rng.randint(0, 500)) for _ in range(300)
    ])
    db.analyze()
    return db


def main() -> None:
    db = build_database()
    orca = Orca(db, config=OptimizerConfig(segments=16))

    sql = "SELECT T1.a FROM T1, T2 WHERE T1.a = T2.b ORDER BY T1.a"
    print(f"query: {sql}\n")

    result = orca.optimize(sql)

    print("=== Memo (groups, expressions, cached requests) ===")
    print(result.memo.dump())

    print("\n=== chosen plan ===")
    print(result.explain())

    stats = result.search_stats
    print(f"\noptimization: {stats.jobs_executed} jobs "
          f"({stats.xform_count} rule applications), "
          f"{stats.num_groups} groups, {stats.num_gexprs} group "
          f"expressions, {result.opt_time_seconds * 1e3:.1f} ms")

    cluster = Cluster(db, segments=16)
    out = Executor(cluster).execute(result.plan, result.output_cols)
    print(f"\nexecution: {len(out.rows)} rows in "
          f"{out.simulated_seconds():.4f} simulated seconds "
          f"({out.metrics.rows_moved} rows moved through the interconnect)")
    print("first 10 rows:", out.rows[:10])


if __name__ == "__main__":
    main()
