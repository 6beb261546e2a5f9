"""Section 7.2.2 (text): optimization time and memory footprint.

"We have also measured optimization time and Orca's memory footprint when
using the full set of transformation rules.  The average optimization
time is around 4 seconds, while the average memory footprint is around
200 MB."  Our simulated substrate is far smaller, so absolute numbers are
smaller; this bench reports the measured analogues per query and their
averages, plus the job mix (the seven job kinds of Section 4.2).
"""

from __future__ import annotations

import statistics

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.workloads import QUERIES


@pytest.fixture(scope="module")
def measurements(hadoop_db):
    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    rows = []
    for query in QUERIES:
        result = orca.optimize(query.sql)
        rows.append({
            "query": query.id,
            "seconds": result.opt_time_seconds,
            "memory_mb": result.search_stats.memory_bytes / (1024 * 1024),
            "groups": result.search_stats.num_groups,
            "gexprs": result.search_stats.num_gexprs,
            "jobs": result.search_stats.jobs_executed,
            "xforms": result.search_stats.xform_count,
            "kinds": result.search_stats.kind_counts,
            "cost": result.plan.cost,
            "pruned": result.search_stats.pruned_alternatives,
            "costed": result.search_stats.costed_alternatives,
        })
    return rows


@pytest.fixture(scope="module")
def exhaustive_measurements(hadoop_db):
    """The same workload with branch-and-bound pruning disabled."""
    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8, enable_cost_bound_pruning=False),
    )
    rows = []
    for query in QUERIES:
        result = orca.optimize(query.sql)
        rows.append({
            "query": query.id,
            "kinds": result.search_stats.kind_counts,
            "cost": result.plan.cost,
        })
    return rows


def test_opt_time_and_memory(measurements, benchmark, hadoop_db):
    print("\n=== Optimization time / memory (full rule set) ===")
    print(f"{'query':28s} {'time(s)':>8s} {'mem(MB)':>8s} {'groups':>7s} "
          f"{'gexprs':>7s} {'jobs':>7s}")
    for row in measurements:
        print(
            f"{row['query']:28s} {row['seconds']:8.3f} "
            f"{row['memory_mb']:8.2f} {row['groups']:7d} "
            f"{row['gexprs']:7d} {row['jobs']:7d}"
        )
    avg_time = statistics.mean(r["seconds"] for r in measurements)
    avg_mem = statistics.mean(r["memory_mb"] for r in measurements)
    print(f"\naverage optimization time: {avg_time:.3f}s "
          "(paper: ~4 s on 111 full-size TPC-DS queries)")
    print(f"average memory footprint:  {avg_mem:.2f} MB "
          "(paper: ~200 MB)")

    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    benchmark(lambda: orca.optimize(QUERIES[0].sql))

    assert avg_time < 10.0
    assert all(r["groups"] > 0 and r["jobs"] > 0 for r in measurements)


def test_job_kind_mix(measurements, benchmark):
    """All seven job kinds participate, with Opt jobs dominating —
    optimization requests fan out the hardest (Figure 8)."""
    def total_mix():
        mix = {}
        for row in measurements:
            for kind, count in row["kinds"].items():
                mix[kind] = mix.get(kind, 0) + count
        return mix

    mix = benchmark(total_mix)
    print("\n=== Job mix across the suite (Section 4.2 job kinds) ===")
    for kind, count in sorted(mix.items(), key=lambda kv: -kv[1]):
        print(f"{kind:16s} {count:8d}")
    assert set(mix) == {
        "Exp(g)", "Exp(gexpr)", "Imp(g)", "Imp(gexpr)",
        "Opt(g,req)", "Opt(gexpr,req)", "Xform",
    }
    assert mix["Opt(gexpr,req)"] > mix["Exp(gexpr)"]


def test_cost_bound_pruning_reduces_search(
    measurements, exhaustive_measurements, benchmark
):
    """Branch-and-bound pruning (Section 4.1, Fig. 5) must cut at least
    15% of Opt(gexpr,req) jobs on the workload aggregate without ever
    changing the cost of the chosen plan."""
    print("\n=== Cost-bound pruning vs exhaustive search ===")
    print(f"{'query':28s} {'opt jobs':>9s} {'exhaust':>9s} {'saved':>7s}")
    pruned_jobs = exhaustive_jobs = 0
    for row, base in zip(measurements, exhaustive_measurements):
        assert row["query"] == base["query"]
        # Pruning is exact: the chosen plan's cost never changes.
        assert row["cost"] == pytest.approx(base["cost"], rel=1e-9), \
            f"pruning changed plan cost for {row['query']}"
        p = row["kinds"].get("Opt(gexpr,req)", 0)
        e = base["kinds"].get("Opt(gexpr,req)", 0)
        pruned_jobs += p
        exhaustive_jobs += e
        saved = (1.0 - p / e) * 100.0 if e else 0.0
        print(f"{row['query']:28s} {p:9d} {e:9d} {saved:6.1f}%")

    total_saved = 1.0 - pruned_jobs / exhaustive_jobs
    pruned_alts = sum(r["pruned"] for r in measurements)
    costed_alts = sum(r["costed"] for r in measurements)
    ratio = pruned_alts / max(pruned_alts + costed_alts, 1)
    print(f"\nOpt(gexpr,req) jobs: {pruned_jobs} pruned vs "
          f"{exhaustive_jobs} exhaustive ({total_saved * 100.0:.1f}% fewer)")
    print(f"alternatives abandoned early: {pruned_alts} of "
          f"{pruned_alts + costed_alts} ({ratio * 100.0:.1f}% pruning ratio)")

    benchmark(lambda: sum(
        r["kinds"].get("Opt(gexpr,req)", 0) for r in measurements
    ))
    assert total_saved >= 0.15


def test_memo_compactness(measurements, benchmark):
    """The Memo encodes the plan space compactly: the number of group
    expressions stays polynomial in query size even though the encoded
    plan space is combinatorial."""
    worst = benchmark(
        lambda: max(r["gexprs"] for r in measurements)
    )
    print(f"\nlargest Memo across the suite: {worst} group expressions")
    assert worst < 5000
