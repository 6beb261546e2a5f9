"""Wall-clock ratio gates the ledger has no counterpart for.

Each is a ratio between two variants of the same work in one process, so
runner speed cancels; absolute timings are the ledger's job
(``benchmarks/ledger/``).
"""

from __future__ import annotations

import gc
import math
import os
import time

import pytest

from repro.catalog.statistics import DEFAULT_BUCKETS, Histogram
from repro.config import ExecutionMode, OptimizerConfig
from repro.engine import Cluster, Executor
from repro.engine.parallel import MorselPool
from repro.obs import FlightRecorder
from repro.optimizer import Orca
from repro.plancache import fingerprint
from repro.service import connect
from repro.sql.parser import parse
from repro.workloads import QUERIES, build_populated_db

SEGMENTS = 4

#: Every query groups on the fact table's distribution key, so the plan
#: is motion-free and its time is inside the generated stage functions —
#: the part the pool parallelises.  The corpus would be the wrong
#: yardstick: its motions, sorts and result materialisation stay on the
#: coordinator by design, so Amdahl caps its speedup near 1x.
PARALLEL_CASES = (
    "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
    "avg(ss_ext_sales_price) AS avg_ext, min(ss_net_profit) AS lo, "
    "max(ss_net_profit) AS hi FROM store_sales "
    "WHERE ss_quantity > 1 GROUP BY ss_item_sk",
    "SELECT ss_item_sk, count(*) AS n, sum(ss_sales_price) AS rev, "
    "avg(ss_net_profit) AS avg_np FROM store_sales, item "
    "WHERE ss_item_sk = i_item_sk GROUP BY ss_item_sk",
    "SELECT cs_item_sk, count(*) AS n, sum(cs_sales_price) AS rev, "
    "avg(cs_net_profit) AS avg_np, max(cs_ext_sales_price) AS hi "
    "FROM catalog_sales WHERE cs_quantity > 0 GROUP BY cs_item_sk",
)


def best_ratio(variants: dict, over: str, under: str, ok, repeats: int = 3):
    """``best[over] / best[under]`` of best-of-N seconds per variant
    (label -> zero-argument callable).

    Variants are warmed once (compiled closures, scan cache, forked
    workers), then passes interleave round-robin so machine drift lands
    on all of them equally, each from a collected heap with the collector
    parked.  A noisy neighbour slows passes unevenly, so a round whose
    ratio misses ``ok`` is measured again, up to five rounds: a bar
    every round misses is a finding, not noise.
    """
    for run in variants.values():
        run()
    for _ in range(5):
        best = dict.fromkeys(variants, math.inf)
        for _ in range(repeats):
            for label, run in variants.items():
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    run()
                    elapsed = time.perf_counter() - start
                finally:
                    gc.enable()
                best[label] = min(best[label], elapsed)
        ratio = best[over] / best[under]
        if ok(ratio):
            break
    return ratio


def executor_pass(cluster, plans, **executor_kwargs):
    def run():
        for result in plans:
            Executor(cluster, **executor_kwargs).execute(
                result.plan, result.output_cols
            )

    return run


def test_fused_vs_row_exec_only(mpp_db):
    orca = Orca(mpp_db, config=OptimizerConfig(segments=SEGMENTS))
    plans = [orca.optimize(q.sql) for q in QUERIES]
    speedup = best_ratio({
        mode: executor_pass(
            Cluster(mpp_db, segments=SEGMENTS), plans, execution_mode=mode
        )
        for mode in (ExecutionMode.ROW, ExecutionMode.FUSED)
    }, ExecutionMode.ROW, ExecutionMode.FUSED, ok=lambda x: x >= 7.5)
    print(f"\nfused vs row, corpus exec-only: {speedup:.2f}x")
    # Measured 8.8-10.3x on the 2-vCPU sandbox; the bar leaves ~15%.
    assert speedup >= 7.5


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="the coordinator needs a core beside the workers: two workers "
           "on 2 vCPUs measure 0.87-1.0x, so the bar can only fail there",
)
def test_morsel_pool_vs_serial_on_motion_free_chains(mpp_db):
    orca = Orca(mpp_db, config=OptimizerConfig(segments=SEGMENTS))
    plans = [orca.optimize(sql) for sql in PARALLEL_CASES]
    pool = MorselPool(min(4, os.cpu_count()), name="bench")
    try:
        speedup = best_ratio({
            label: executor_pass(
                Cluster(mpp_db, segments=SEGMENTS), plans,
                execution_mode=ExecutionMode.FUSED, morsel_pool=morsel_pool,
            )
            for label, morsel_pool in (("serial", None), ("parallel", pool))
        }, "serial", "parallel", ok=lambda x: x >= 1.3)
        dispatched = pool.stats()["morsels_dispatched"]
    finally:
        pool.shutdown()
    print(f"\nmorsel pool vs serial fused: {speedup:.2f}x "
          f"({dispatched} morsels)")
    assert dispatched > 0
    assert speedup >= 1.3


def test_flight_recorder_overhead():
    """Optimize + execute through a governed session costs under 2% more
    with the always-on recorder attached."""
    db = build_populated_db(scale=0.05, seed=42)
    recorders = []

    def session_pass(flight: bool):
        def run():
            recorder = FlightRecorder() if flight else None
            session = connect(db, flight_recorder=recorder, segments=SEGMENTS)
            for query in QUERIES[:6]:
                session.execute(query.sql)
            session.close()
            if flight:
                recorders.append(recorder)

        return run

    slowdown = best_ratio(
        {"off": session_pass(False), "on": session_pass(True)},
        "on", "off", ok=lambda x: x < 1.02, repeats=7,
    )
    assert all(
        r.records and all(rec.spans for rec in r.records) for r in recorders
    ), "flight recorder captured nothing"
    print(f"\nflight recorder overhead: {slowdown - 1.0:+.2%}")
    assert slowdown < 1.02


def test_plan_cache_hit_vs_parse_and_fingerprint():
    """A warm ``Session.optimize()`` hit costs at most half of what
    parsing and fingerprinting the same text costs: the plan cache's
    statement front takes a seen text straight to the lookup, and the
    lookup is a dict probe and not a tree copy.  (With the front and the
    probe it measures ~0.05x; a hit routed back through the lexer is
    >= 1x, a deep-copied plan was ~5x.)"""
    db = build_populated_db(scale=0.05, seed=42)
    texts = [query.sql for query in QUERIES]
    with connect(db, segments=SEGMENTS, enable_plan_cache=True) as session:
        for sql in texts:
            session.optimize(sql)
        warm = session.orca.plan_cache.stats()

        def hits():
            for sql in texts:
                session.optimize(sql)

        def floor():
            for sql in texts:
                fingerprint(parse(sql))

        ratio = best_ratio(
            {"hit": hits, "floor": floor}, "hit", "floor",
            ok=lambda x: x <= 0.5, repeats=7,
        )
        stats = session.orca.plan_cache.stats()
    assert warm["stores"] == len(texts)
    # Every timed optimize() was an exact hit.
    assert (stats["misses"], stats["rebinds"]) == (warm["misses"], 0)
    assert stats["hits"] > warm["hits"]
    assert stats["statement_misses"] == warm["statement_misses"] == len(texts)
    print(f"\nplan-cache hit vs parse + fingerprint: {ratio:.2f}x")
    assert ratio <= 0.5


def test_histogram_join_one_pass_vs_per_slice():
    """``Histogram.join_slices`` cuts each side in one pass; the per-slice
    ``_slice`` scan it replaced (one bisect and one bucket walk per slice
    and side) stays as the reference in ``tests/test_statistics.py``.
    Two overlapping 32-bucket histograms, as a join of two analysed
    columns has (measured 3.7-4.9x on a 2-vCPU host)."""
    from tests.test_statistics import per_slice_join_slices

    left = Histogram.from_values(range(0, 6400, 2))
    right = Histogram.from_values([(i * 37) % 5000 for i in range(4000)])
    assert len(left.buckets) == len(right.buckets) == DEFAULT_BUCKETS
    assert left.join_slices(right) == per_slice_join_slices(left, right)

    def cut(join):
        def run():
            for _ in range(200):
                join(left, right)

        return run

    speedup = best_ratio(
        {
            "per_slice": cut(per_slice_join_slices),
            "one_pass": cut(Histogram.join_slices),
        },
        "per_slice", "one_pass", ok=lambda x: x >= 2.0,
    )
    print(f"\nhistogram join, one pass vs per slice: {speedup:.2f}x")
    assert speedup >= 2.0
