"""Multi-stage optimization (Section 4.1, "Multi-Stage Optimization").

"An optimization stage in Orca is defined as a complete optimization
workflow using a subset of transformation rules and (optional) time-out
and cost threshold ... the most expensive transformation rules are
configured to run in later stages to avoid increasing the optimization
time."

This example optimizes a 5-way join three ways:

1. single full stage (all rules);
2. a cheap first stage without join reordering, then a full second stage
   with a cost threshold — if the cheap plan is already good enough, the
   expensive exploration is skipped;
3. a cheap stage with a tiny job budget, demonstrating that a plan is
   still always produced.

Run:  python examples/multi_stage.py
"""

from repro import Orca, OptimizationStage, OptimizerConfig
from repro.workloads import build_populated_db

SQL = """
SELECT i.i_brand, s.s_store_name, d.d_year, count(*) AS n
FROM store_sales ss, item i, store s, date_dim d, promotion p
WHERE ss.ss_item_sk = i.i_item_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_sold_date_sk = d.d_date_sk
  AND ss.ss_promo_sk = p.p_promo_sk
  AND p.p_channel_tv = 'Y'
GROUP BY i.i_brand, s.s_store_name, d.d_year
ORDER BY n DESC
LIMIT 20
"""

CHEAP_RULES = frozenset({
    "Get2TableScan", "Select2Filter", "Project2ComputeScalar",
    "InnerJoin2HashJoin", "GbAgg2HashAgg", "Limit2Limit",
})


def report(label, result):
    stats = result.search_stats
    print(f"{label:42s} cost={result.plan.cost:12.1f} "
          f"jobs={stats.jobs_executed:5d} xforms={stats.xform_count:4d} "
          f"gexprs={stats.num_gexprs:4d} "
          f"time={result.opt_time_seconds * 1e3:7.1f} ms")
    return result


def main() -> None:
    db = build_populated_db(scale=0.15)
    print("query: 5-way star join with aggregation\n")

    full = report(
        "1. single full stage",
        Orca(db, config=OptimizerConfig(segments=8)).optimize(SQL),
    )

    staged_config = OptimizerConfig(segments=8).with_stages([
        OptimizationStage(name="cheap", rules=CHEAP_RULES,
                          cost_threshold=full.plan.cost * 1.1),
        OptimizationStage(name="full"),
    ])
    report(
        "2. cheap stage + threshold, then full",
        Orca(db, config=staged_config).optimize(SQL),
    )

    generous_threshold = OptimizerConfig(segments=8).with_stages([
        OptimizationStage(name="cheap", rules=CHEAP_RULES,
                          cost_threshold=full.plan.cost * 100),
        OptimizationStage(name="full"),
    ])
    report(
        "3. cheap stage, threshold met -> stop early",
        Orca(db, config=generous_threshold).optimize(SQL),
    )

    starved = OptimizerConfig(segments=8).with_stages([
        OptimizationStage(name="starved", timeout_jobs=10),
    ])
    report(
        "4. starved stage (safety stage kicks in)",
        Orca(db, config=starved).optimize(SQL),
    )

    print("\nStage budgets trade plan quality for optimization effort; a")
    print("plan is produced in every configuration (the stage terminates")
    print("on threshold, timeout, or rule exhaustion — Section 4.1).")


if __name__ == "__main__":
    main()
