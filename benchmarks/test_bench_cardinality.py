"""Section 6: the cardinality estimation testing framework, suite-wide.

The paper lists "a cardinality estimation testing framework" among
Orca's built-in quality tools.  This bench runs every executable query,
compares per-operator row estimates against actual per-loop row counts
(``repro.verify.qerror.plan_qerror`` over the executor's per-node ledger),
and relates estimation quality to the confidence scores (the Section 4.1
open problem implemented in repro.stats.derivation).
"""

from __future__ import annotations

import statistics

import pytest

from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.verify.qerror import plan_qerror
from repro.workloads import QUERIES


@pytest.fixture(scope="module")
def card_reports(hadoop_db):
    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    cluster = Cluster(hadoop_db, segments=8)
    reports = []
    for query in QUERIES:
        result = orca.optimize(query.sql)
        out = Executor(cluster).execute(
            result.plan, result.output_cols, analyze=True
        )
        report = plan_qerror(out.analysis)
        reports.append({
            "query": query.id,
            "median_q": report.median,
            "max_q": report.max_qerror,
            "confidence": result.stats_confidence,
            "worst": report.worst(1),
        })
    return reports


def test_cardinality_quality_table(card_reports, benchmark, hadoop_db):
    print("\n=== Cardinality estimation quality (q-error; 1.0 = exact) ===")
    print(f"{'query':28s} {'median q':>9s} {'max q':>9s} {'confidence':>11s}")
    for row in card_reports:
        print(
            f"{row['query']:28s} {row['median_q']:9.2f} "
            f"{min(row['max_q'], 9999.0):9.2f} {row['confidence']:11.3f}"
        )
    medians = [r["median_q"] for r in card_reports]
    overall = statistics.median(medians)
    print(f"\nsuite median of per-query median q-errors: {overall:.2f}")

    orca = Orca(hadoop_db, config=OptimizerConfig(segments=8))
    benchmark(lambda: orca.optimize(QUERIES[0].sql))

    assert overall < 2.5
    # estimates anchored by histograms: most queries estimate well
    good = sum(1 for m in medians if m < 2.0)
    assert good >= len(medians) * 0.7


def test_confidence_tracks_estimation_risk(card_reports, benchmark):
    """Low-confidence derivations should, in aggregate, carry larger
    worst-case q-errors than high-confidence ones — the property that
    makes a confidence score useful at all."""
    def tercile_means():
        ranked = sorted(card_reports, key=lambda r: r["confidence"])
        third = max(len(ranked) // 3, 1)
        bottom = ranked[:third]
        top = ranked[-third:]
        def mean(rows):
            return sum(r["max_q"] for r in rows) / len(rows)

        return mean(top), mean(bottom)

    mean_top, mean_bottom = benchmark(tercile_means)
    print(f"\nmean worst-case q-error — most-confident tercile: "
          f"{mean_top:.1f}; least-confident tercile: {mean_bottom:.1f}")
    assert mean_bottom > mean_top
