"""Feature ablations: re-measuring Section 7.2.2's salient features.

The paper credits Orca's wins to four features — join ordering,
correlated subqueries, partition elimination and common expressions.
Each ablation disables one feature and re-runs the queries it should
matter for, reporting the slowdown the feature was worth.
"""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import queries_by_id
from repro.xforms.registry import JOIN_REORDERING_RULES

from benchmarks.conftest import timed_execution

ABLATIONS = [
    # (feature, config kwargs, query ids it should matter for)
    (
        "decorrelation",
        {"enable_decorrelation": False},
        ("avg_price_corr_subquery", "exists_customers", "in_subquery_items"),
    ),
    (
        "cte_sharing",
        {"enable_cte_sharing": False},
        ("cte_frequent_items", "cte_year_totals"),
    ),
    (
        "partition_elimination",
        {"enable_partition_elimination": False},
        ("dpe_quarter", "category_by_day"),
    ),
    (
        "join_reordering",
        {"disabled_rules": JOIN_REORDERING_RULES},
        ("multi_fact_join", "star_brand", "zip_group"),
    ),
]


@pytest.fixture(scope="module")
def ablation_results(hadoop_db):
    by_id = queries_by_id()
    baseline = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    rows = []
    for feature, kwargs, qids in ABLATIONS:
        ablated = Orca(hadoop_db, config=OptimizerConfig(segments=8, **kwargs))
        for qid in qids:
            sql = by_id[qid].sql
            t_on, _ = timed_execution(
                hadoop_db, baseline.optimize(sql), segments=8,
                time_limit=100.0,
            )
            t_off, _ = timed_execution(
                hadoop_db, ablated.optimize(sql), segments=8,
                time_limit=100.0,
            )
            rows.append({
                "feature": feature,
                "query": qid,
                "on_s": t_on,
                "off_s": t_off,
                "slowdown": t_off / max(t_on, 1e-12),
            })
    return rows


def test_ablation_table(ablation_results, benchmark, hadoop_db):
    print("\n=== Feature ablations (Section 7.2.2 salient features) ===")
    print(f"{'feature':24s} {'query':26s} {'on(s)':>9s} {'off(s)':>9s} "
          f"{'slowdown':>9s}")
    for row in ablation_results:
        print(
            f"{row['feature']:24s} {row['query']:26s} {row['on_s']:9.4f} "
            f"{row['off_s']:9.4f} {row['slowdown']:9.2f}x"
        )
    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    benchmark(
        lambda: orca.optimize(queries_by_id()["dpe_quarter"].sql)
    )

    worst_by_feature = {}
    for row in ablation_results:
        worst_by_feature[row["feature"]] = max(
            worst_by_feature.get(row["feature"], 0.0), row["slowdown"]
        )
    print("\nbiggest slowdown per disabled feature:")
    for feature, slowdown in worst_by_feature.items():
        print(f"  {feature:24s} {slowdown:8.2f}x")
    # decorrelation is the headline feature (the 1000x class)
    assert worst_by_feature["decorrelation"] > 20
    assert worst_by_feature["cte_sharing"] > 1.2
    assert worst_by_feature["partition_elimination"] > 1.2
    # disabling any feature never *helps* materially
    assert all(r["slowdown"] > 0.8 for r in ablation_results)


def test_ablations_preserve_correctness(hadoop_db, benchmark):
    """Ablated configurations still return correct results."""
    from repro.engine import Cluster, Executor
    from tests.conftest import rows_equal

    by_id = queries_by_id()
    sql = by_id["avg_price_corr_subquery"].sql
    cluster = Cluster(hadoop_db, segments=8)
    base = Orca(hadoop_db, config=OptimizerConfig(segments=8)).optimize(sql)
    base_rows = Executor(cluster).execute(base.plan, base.output_cols).rows

    def ablated_rows():
        result = Orca(hadoop_db, config=OptimizerConfig(segments=8, enable_decorrelation=False),
        ).optimize(sql)
        return Executor(cluster).execute(result.plan, result.output_cols).rows

    rows = benchmark.pedantic(ablated_rows, rounds=1, iterations=1)
    assert rows_equal(rows, base_rows)
