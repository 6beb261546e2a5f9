"""Branch-and-bound search pruning (Section 4.1, Fig. 5).

Pruning is *exact*: with ``enable_cost_bound_pruning`` on, alternatives
are abandoned only when a sound lower bound on their final cost already
reaches the incumbent best cost, so the chosen plan's cost must be
identical to an exhaustive search — while executing measurably fewer
optimization jobs.  These tests verify exactness over the whole TPC-DS
workload and over randomized queries, the job savings, the typed trace
events, and the off switch.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.trace import Tracer
from repro.workloads import QUERIES

from tests.conftest import make_small_db
from tests.test_differential import QueryGenerator


def _configs():
    pruned = OptimizerConfig(segments=8)
    exhaustive = OptimizerConfig(segments=8, enable_cost_bound_pruning=False)
    assert pruned.enable_cost_bound_pruning  # on by default
    return pruned, exhaustive


@pytest.fixture(scope="module")
def workload_results(tpcds_db):
    pruned_cfg, exhaustive_cfg = _configs()
    pruned = Orca(tpcds_db, config=pruned_cfg)
    exhaustive = Orca(tpcds_db, config=exhaustive_cfg)
    return [
        (q.id, pruned.optimize(q.sql), exhaustive.optimize(q.sql))
        for q in QUERIES
    ]


def test_pruned_cost_equals_exhaustive_on_workload(workload_results):
    """The acceptance property: for every workload query the pruned
    search selects a plan of identical cost to the exhaustive search."""
    for qid, pruned, exhaustive in workload_results:
        assert pruned.plan.cost == pytest.approx(
            exhaustive.plan.cost, rel=1e-9
        ), qid


def test_pruning_reduces_optimization_jobs(workload_results):
    pruned_jobs = sum(
        r.search_stats.kind_counts.get("Opt(gexpr,req)", 0)
        for _q, r, _e in workload_results
    )
    exhaustive_jobs = sum(
        e.search_stats.kind_counts.get("Opt(gexpr,req)", 0)
        for _q, _r, e in workload_results
    )
    assert pruned_jobs < exhaustive_jobs
    # The full-scale benchmark asserts >= 15%; the smaller test database
    # still has to show a clearly material reduction.
    assert 1.0 - pruned_jobs / exhaustive_jobs >= 0.10
    assert sum(r.search_stats.pruned_alternatives for _q, r, _e in workload_results) > 0


def test_exhaustive_mode_never_prunes(workload_results):
    for qid, _pruned, exhaustive in workload_results:
        assert exhaustive.search_stats.pruned_alternatives == 0, qid


def test_corpus_counters_are_pinned():
    """Corpus totals at scale 0.1 / 8 segments, exactly.  They are
    deterministic, so any drift is a changed search decision: a count
    that moves on purpose is re-pinned here in the same change."""
    from repro.workloads import build_populated_db

    db = build_populated_db(scale=0.1)
    pruned_cfg, exhaustive_cfg = _configs()

    def corpus(orca):
        return [orca.optimize(q.sql).search_stats for q in QUERIES]

    def total(stats, field):
        return sum(getattr(s, field) for s in stats)

    def opt_gexpr_jobs(stats):
        return sum(s.kind_counts.get("Opt(gexpr,req)", 0) for s in stats)

    pruned = corpus(Orca(db, config=pruned_cfg))
    assert total(pruned, "jobs_executed") == 14900
    assert total(pruned, "num_groups") == 320
    assert total(pruned, "num_gexprs") == 2986
    assert total(pruned, "derivation_cache_hits") == 23781
    # Pruning ratio 0.3823 = 2716 / (2716 + 4389).
    assert total(pruned, "pruned_alternatives") == 2716
    assert total(pruned, "costed_alternatives") == 4389
    # Job savings 0.2352 = 1 - 9008 / 11778.
    assert opt_gexpr_jobs(pruned) == 9008
    assert opt_gexpr_jobs(corpus(Orca(db, config=exhaustive_cfg))) == 11778
    # A second pass over a warm plan cache hits every time: rate 0.5.
    cached = Orca(db, config=replace(
        pruned_cfg, enable_plan_cache=True, plan_cache_size=len(QUERIES) + 1
    ))
    corpus(cached)
    assert all(cached.optimize(q.sql).plan_cache == "hit" for q in QUERIES)
    cache = cached.plan_cache.stats()
    assert (cache["hits"], cache["misses"]) == (32, 32)


def test_search_pruned_trace_events(tpcds_db):
    """Every abandoned alternative emits one typed ``search_pruned``
    event whose payload names the expression, the sound partial cost and
    the threshold it reached."""
    tracer = Tracer()
    orca = Orca(tpcds_db, config=OptimizerConfig(segments=8), tracer=tracer)
    query = next(q for q in QUERIES if q.id == "star_brand")
    result = orca.optimize(query.sql)
    events = tracer.events_of("search_pruned")
    assert len(events) == result.search_stats.pruned_alternatives > 0
    for event in events:
        assert event.data["reason"] in ("incumbent", "bound")
        assert event.data["partial"] >= 0.0
        assert math.isfinite(event.data["threshold"])
        assert event.data["children_costed"] >= 0
        assert "gexpr_id" in event.data and "req" in event.data


def test_no_pruning_events_when_disabled(tpcds_db):
    tracer = Tracer()
    orca = Orca(tpcds_db, config=OptimizerConfig(segments=8, enable_cost_bound_pruning=False),
        tracer=tracer,
    )
    query = next(q for q in QUERIES if q.id == "star_brand")
    orca.optimize(query.sql)
    assert tracer.count("search_pruned") == 0


@pytest.fixture(scope="module")
def prop_db():
    return make_small_db(t1_rows=1500, t2_rows=300)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_pruning_never_changes_chosen_cost(prop_db, seed):
    """Hypothesis property: for randomized queries over the small
    schema, pruned and exhaustive searches select identical-cost plans."""
    sql = QueryGenerator(seed).generate()
    pruned_cfg, exhaustive_cfg = _configs()
    pruned = Orca(prop_db, config=pruned_cfg).optimize(sql)
    exhaustive = Orca(prop_db, config=exhaustive_cfg).optimize(sql)
    assert pruned.plan.cost == pytest.approx(
        exhaustive.plan.cost, rel=1e-9
    ), sql
