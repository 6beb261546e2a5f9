"""Feedback-driven re-optimization (Section 4, Section 6.1).

Covers the cardinality feedback loop end to end: FeedbackStore ingest /
lookup semantics, the session-stable logical shape keys, the Hypothesis
contract that corrections are monotone and never negative, the
bit-identical-search-when-off guarantee, seeded two-pass determinism
(extending the tests/test_scheduler_determinism.py pattern), the
differential guarantee that feedback never changes result rows, and the
acceptance criterion that a second pass over the TPC-DS workload has a
strictly lower geomean q-error than the first.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import feedback
from repro.config import OptimizerConfig
from repro.feedback import (
    Correction,
    FeedbackEntry,
    FeedbackStore,
    MIN_CONFIDENCE,
    plan_shapes,
)
from repro.optimizer import Orca
from repro.search.plan import PlanNode
from repro.telemetry.analyze import PlanAnalysis
from repro.telemetry.stats_store import QueryStatsStore
from repro.verify.qerror import workload_qerror
from repro.workloads import QUERIES, queries_by_id

from tests.conftest import make_small_db, rows_equal
from tests.test_differential import QueryGenerator

#: Seeded workload shared with the scheduler-determinism suite's pattern:
#: identical inputs must yield identical stores and identical plans.
SMALL_DB_SQL = [QueryGenerator(seed).generate() for seed in range(300, 308)]
TPCDS_IDS = ["star_brand", "demo_promo"]


class _Op:
    def __init__(self, name: str):
        self.name = name


def _fake_execution(specs):
    """A shape-annotated plan plus its PlanAnalysis.

    ``specs``: list of (shape, op_name, loops, rows_out); first is root.
    """
    nodes = [
        PlanNode(op=_Op(name), rows_estimate=1.0, shape=shape)
        for shape, name, _, _ in specs
    ]
    root = nodes[0]
    root.children = nodes[1:]
    analysis = PlanAnalysis(plan=root, segments=2)
    for node, (_, _, loops, rows_out) in zip(nodes, specs):
        stats = analysis.stats_for(node)
        stats.loops = loops
        stats.rows_out = rows_out
    return root, analysis


REL_A = ("rel", (("t", "t1", None),), frozenset())
REL_B = ("rel", (("t", "t2", None),), frozenset())
REL_C = ("rel", (("t", "t3", None),), frozenset())


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------

class TestStoreIngest:
    def test_ingest_creates_entries(self):
        store = FeedbackStore()
        plan, analysis = _fake_execution([
            (REL_A, "TableScan", 1, 500),
            (REL_B, "TableScan", 1, 60),
        ])
        report = store.ingest(plan, analysis)
        assert report.nodes_seen == 2
        assert report.new_entries == 2
        assert report.changed_shapes == frozenset({REL_A, REL_B})
        assert len(store) == 2
        assert store.entry(REL_A).observed_rows == 500.0

    def test_ewma_blends_repeated_observations(self):
        store = FeedbackStore()
        for rows in (100, 200):
            plan, analysis = _fake_execution([(REL_A, "Scan", 1, rows)])
            store.ingest(plan, analysis)
        entry = store.entry(REL_A)
        assert entry.observed_rows == pytest.approx(150.0)
        assert entry.observations == 2

    def test_loops_normalize_to_per_execution_rows(self):
        store = FeedbackStore()
        plan, analysis = _fake_execution([(REL_A, "Scan", 10, 300)])
        store.ingest(plan, analysis)
        assert store.entry(REL_A).observed_rows == pytest.approx(30.0)

    def test_shapeless_broadcast_and_unexecuted_nodes_are_skipped(self):
        store = FeedbackStore()
        plan, analysis = _fake_execution([
            (REL_A, "Scan", 1, 10),
            (None, "Project", 1, 10),       # no shape annotation
            (REL_B, "Broadcast", 1, 80),    # replicates rows: excluded
            (REL_C, "Scan", 0, 0),          # never executed
        ])
        report = store.ingest(plan, analysis)
        assert report.nodes_seen == 1
        assert len(store) == 1
        assert store.entry(REL_B) is None
        assert store.entry(REL_C) is None

    def test_shape_sharing_nodes_collapse_to_one_entry(self):
        # A Sort above a Scan shares the Scan's logical shape; both
        # report the group's cardinality once.
        store = FeedbackStore()
        plan, analysis = _fake_execution([
            (REL_A, "Sort", 1, 42),
            (REL_A, "TableScan", 1, 42),
        ])
        report = store.ingest(plan, analysis)
        assert report.new_entries == 1
        assert store.entry(REL_A).observations == 1

    def test_drift_threshold_gates_changed_shapes(self):
        store = FeedbackStore()
        plan, analysis = _fake_execution([(REL_A, "Scan", 1, 1000)])
        store.ingest(plan, analysis)
        version = store.version
        # Re-observing the same cardinality: EWMA unchanged, no drift.
        report = store.ingest(*_fake_execution([(REL_A, "Scan", 1, 1000)]))
        assert report.changed_shapes == frozenset()
        assert store.version == version
        # A 2x jump drifts well past 5%.
        plan2, analysis2 = _fake_execution([(REL_A, "Scan", 1, 2000)])
        report = store.ingest(plan2, analysis2)
        assert report.changed_shapes == frozenset({REL_A})
        assert store.version == version + 1

    def test_eviction_is_deterministic_and_counts(self, monkeypatch):
        monkeypatch.setattr(feedback, "MAX_ENTRIES", 2)
        store = FeedbackStore()
        for shape, rows in ((REL_A, 10), (REL_B, 20), (REL_C, 30)):
            plan, analysis = _fake_execution([(shape, "Scan", 1, rows)])
            store.ingest(plan, analysis)
        assert store.evictions == 1
        # The stalest entry (REL_A, generation 1) was the victim.
        assert store.entry(REL_A) is None
        assert store.entry(REL_B) is not None
        assert store.entry(REL_C) is not None

    def test_stats_summary_and_reset(self):
        store = FeedbackStore()
        plan, analysis = _fake_execution([(REL_A, "Scan", 1, 10)])
        store.ingest(plan, analysis)
        store.correction(REL_A)
        stats = store.stats()
        assert stats["entries"] == 1 and stats["ingests"] == 1
        assert "feedback store: 1 shapes" in store.summary()
        store.reset()
        assert len(store) == 0
        assert store.stats() == {
            "entries": 0, "generation": 0, "version": 0, "ingests": 0,
            "lookup_hits": 0, "lookup_misses": 0, "evictions": 0,
        }


class TestConfidence:
    def test_ramps_with_observations(self):
        entry = FeedbackEntry(shape=REL_A, observed_rows=10.0,
                              observations=1, last_generation=5)
        one = entry.confidence(5)
        entry.observations = 3
        three = entry.confidence(5)
        assert one == pytest.approx(0.5)
        assert three == pytest.approx(0.875)

    def test_decays_with_staleness(self):
        entry = FeedbackEntry(shape=REL_A, observed_rows=10.0,
                              observations=4, last_generation=0)
        fresh = entry.confidence(0)
        stale = entry.confidence(200)
        assert stale < fresh
        assert stale == pytest.approx(fresh * 0.995 ** 200)

    def test_low_confidence_entries_return_no_correction(self):
        store = FeedbackStore()
        store.ingest(*_fake_execution([(REL_A, "Scan", 1, 100)]))
        # 190 ingests of another shape age REL_A's one observation to
        # 0.5 * 0.995**190 < MIN_CONFIDENCE: a miss, not a weak hit.
        for _ in range(190):
            store.ingest(*_fake_execution([(REL_B, "Scan", 1, 10)]))
        assert store.entry(REL_A).confidence(store.generation) < MIN_CONFIDENCE
        assert store.correction(REL_A) is None
        assert store.lookup_misses == 1
        store.ingest(*_fake_execution([(REL_A, "Scan", 1, 100)]))
        corr = store.correction(REL_A)
        assert corr is not None
        assert store.lookup_hits == 1

    def test_unknown_shape_is_a_miss(self):
        store = FeedbackStore()
        assert store.correction(REL_A) is None
        assert store.lookup_misses == 1


# ----------------------------------------------------------------------
# Hypothesis: corrections are monotone and never negative
# ----------------------------------------------------------------------

class TestCorrectionProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        est=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        obs_lo=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        obs_hi=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        conf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_monotone_in_observed_and_never_negative(
        self, est, obs_lo, obs_hi, conf
    ):
        if obs_lo > obs_hi:
            obs_lo, obs_hi = obs_hi, obs_lo
        lo = Correction(observed_rows=obs_lo, confidence=conf)
        hi = Correction(observed_rows=obs_hi, confidence=conf)
        assert lo.corrected_rows(est) <= hi.corrected_rows(est)
        assert lo.corrected_rows(est) >= 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        est=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        obs=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        conf=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_correction_stays_between_estimate_and_observation(
        self, est, obs, conf
    ):
        corrected = Correction(obs, conf).corrected_rows(est)
        tol = 1e-9 * max(1.0, est, obs)  # float blend rounding
        assert min(est, obs) - tol <= corrected <= max(est, obs) + tol


# ----------------------------------------------------------------------
# Shape keys: session-stable, join-order invariant
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def shape_db():
    return make_small_db(t1_rows=1200, t2_rows=250)


def _feedback_orca(db, **kw):
    config = OptimizerConfig(
        segments=4, enable_cardinality_feedback=True, **kw
    )
    return Orca(db, config=config)


class TestShapeKeys:
    def test_shapes_are_stable_across_sessions(self, shape_db):
        sql = "SELECT a, b FROM t1 WHERE b < 40 ORDER BY a LIMIT 10"
        shapes1 = plan_shapes(_feedback_orca(shape_db).optimize(sql).plan)
        shapes2 = plan_shapes(_feedback_orca(shape_db).optimize(sql).plan)
        assert shapes1 == shapes2
        assert shapes1  # non-empty

    def test_join_order_equivalent_queries_share_the_join_shape(
        self, shape_db
    ):
        a = _feedback_orca(shape_db).optimize(
            "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.b < 500"
        )
        b = _feedback_orca(shape_db).optimize(
            "SELECT t1.a FROM t2 JOIN t1 ON t2.a = t1.a WHERE t2.b < 500"
        )
        # The root group of both plans is the same logical expression:
        # inner-join shapes flatten to (relation set, predicate set).
        assert a.plan.shape == b.plan.shape

    def test_different_literals_are_different_shapes(self, shape_db):
        a = _feedback_orca(shape_db).optimize("SELECT a FROM t1 WHERE b = 5")
        b = _feedback_orca(shape_db).optimize("SELECT a FROM t1 WHERE b = 9")
        assert a.plan.shape != b.plan.shape

    def test_flag_off_leaves_plans_unannotated(self, shape_db):
        orca = Orca(shape_db, config=OptimizerConfig(segments=4))
        result = orca.optimize("SELECT a FROM t1 WHERE b = 5")
        assert all(n.shape is None for n in result.plan.walk())


# ----------------------------------------------------------------------
# Off = bit-identical; empty store = identical plans
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def det_db():
    return make_small_db(t1_rows=1200, t2_rows=250)


def _search_signature(result):
    s = result.search_stats
    return (
        result.plan.explain(),
        s.num_groups,
        s.num_gexprs,
        s.jobs_executed,
        s.xform_count,
        s.pruned_alternatives,
        s.costed_alternatives,
    )


class TestFlagOffIsBitIdentical:
    @pytest.mark.parametrize("sql", SMALL_DB_SQL)
    def test_empty_store_changes_nothing_small_db(self, det_db, sql):
        """With the flag on but no observations yet, every estimate is
        untouched, so the search must match a feedback-less run in plans,
        group counts, and job counts alike."""
        plain = Orca(det_db, config=OptimizerConfig(segments=8))
        fed = Orca(det_db, config=OptimizerConfig(
            segments=8, enable_cardinality_feedback=True
        ))
        base = plain.optimize(sql)
        on = fed.optimize(sql)
        assert _search_signature(base) == _search_signature(on)
        assert on.search_stats.corrections_applied == 0

    @pytest.mark.parametrize("query_id", TPCDS_IDS)
    def test_empty_store_changes_nothing_tpcds(self, tpcds_db, query_id):
        sql = queries_by_id()[query_id].sql
        plain = Orca(tpcds_db, config=OptimizerConfig(segments=8))
        fed = Orca(tpcds_db, config=OptimizerConfig(
            segments=8, enable_cardinality_feedback=True
        ))
        assert _search_signature(plain.optimize(sql)) == \
            _search_signature(fed.optimize(sql))

    def test_flag_off_wires_nothing(self, det_db):
        orca = Orca(det_db, config=OptimizerConfig(segments=8))
        assert orca.feedback is None
        result = orca.optimize(SMALL_DB_SQL[0])
        assert result.search_stats.feedback_hits == 0
        assert result.search_stats.corrections_applied == 0
        session = repro.connect(det_db, segments=8)
        assert session.feedback is None


# ----------------------------------------------------------------------
# Seeded two-pass determinism
# ----------------------------------------------------------------------

def _store_snapshot(store):
    return [
        (e.shape, e.observed_rows, e.observations, e.last_generation)
        for e in store.entries()
    ]


def _two_pass_run():
    """One full seeded run: fresh data, fresh session, the workload
    executed twice with feedback on.  Returns everything a replay must
    reproduce bit-for-bit."""
    db = make_small_db(t1_rows=1200, t2_rows=250)
    session = repro.connect(
        db, segments=8, enable_cardinality_feedback=True
    )
    second_pass_plans = []
    for _ in range(2):
        second_pass_plans = []
        for sql in SMALL_DB_SQL:
            session.execute(sql)
            second_pass_plans.append(session.last_result.plan.explain())
    return _store_snapshot(session.feedback), second_pass_plans


class TestTwoPassDeterminism:
    def test_replays_reproduce_store_and_plans(self):
        store1, plans1 = _two_pass_run()
        store2, plans2 = _two_pass_run()
        assert store1 == store2
        assert plans1 == plans2
        assert store1  # the runs actually ingested something


# ----------------------------------------------------------------------
# Session / pool / telemetry integration
# ----------------------------------------------------------------------

class TestSessionIntegration:
    def test_execute_auto_ingests(self, det_db):
        session = repro.connect(
            det_db, segments=4, enable_cardinality_feedback=True
        )
        assert isinstance(session.feedback, FeedbackStore)
        session.execute("SELECT a FROM t1 WHERE b < 20")
        assert session.feedback.ingests == 1
        assert len(session.feedback) > 0

    def test_reoptimization_applies_corrections(self, det_db):
        session = repro.connect(
            det_db, segments=4, enable_cardinality_feedback=True
        )
        sql = "SELECT t1.a, count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.a " \
              "WHERE t1.b < 50 GROUP BY t1.a"
        session.execute(sql)
        session.execute(sql)  # confidence ramps past the floor
        result = session.optimize(sql)
        assert result.search_stats.feedback_hits > 0
        assert result.search_stats.corrections_applied > 0

    def test_stats_store_aggregates_qerror(self, det_db):
        stats_store = QueryStatsStore()
        session = repro.connect(
            det_db, segments=4, enable_cardinality_feedback=True,
            stats_store=stats_store,
        )
        sql = "SELECT a FROM t1 WHERE b < 20"
        session.execute(sql)
        (stats,) = [
            q for q in stats_store.entries() if q.qerror_samples > 0
        ]
        assert stats.geomean_qerror >= 1.0
        assert stats.max_qerror >= 1.0
        assert "q-err" in stats_store.render_qerror()

    def test_feedback_invalidates_plan_cache_entries(self, det_db):
        session = repro.connect(
            det_db, segments=4,
            enable_cardinality_feedback=True, enable_plan_cache=True,
        )
        cache = session.orca.plan_cache
        sql = "SELECT a, b FROM t1 WHERE b = 33 ORDER BY a LIMIT 5"
        session.execute(sql)
        # The first execution's observations invalidated the entry the
        # same optimization had just stored.
        assert cache.stats()["feedback_invalidations"] >= 1
        session.execute(sql)
        # Re-observing identical actuals drifts nothing: the re-stored
        # entry survives and the third run is a cache hit.
        session.execute(sql)
        assert cache.stats()["hits"] >= 1

    def test_sessions_share_one_store(self, det_db):
        store = FeedbackStore()
        s1, s2 = (
            repro.connect(
                det_db, segments=4, enable_cardinality_feedback=True,
                feedback_store=store,
            )
            for _ in range(2)
        )
        s1.execute("SELECT a FROM t1 WHERE b < 15")
        assert s1.feedback is store
        # A fresh session benefits from the first one's observations:
        # shape keys survive the ColRef-id churn between sessions.
        s2.execute("SELECT a FROM t1 WHERE b < 15")
        result = s2.optimize("SELECT a FROM t1 WHERE b < 15")
        assert s2.feedback is store
        assert result.search_stats.feedback_hits > 0

    def test_telemetry_counters(self, det_db):
        registry = repro.MetricsRegistry()
        session = repro.connect(
            det_db, segments=4, enable_cardinality_feedback=True,
            telemetry=registry,
        )
        sql = "SELECT a FROM t1 WHERE b < 25"
        session.execute(sql)
        session.execute(sql)
        assert registry.value("feedback_ingests_total") == 2
        assert registry.value("feedback_entries_total", outcome="new") >= 1
        assert registry.value("feedback_lookup_hits_total") > 0


# ----------------------------------------------------------------------
# Differential + acceptance over the TPC-DS corpus
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_runs(tpcds_db):
    """Execute the full workload: once without feedback (reference rows)
    and three times with it (the loop closing between passes)."""
    off = repro.connect(tpcds_db, segments=4)
    on = repro.connect(
        tpcds_db, segments=4, enable_cardinality_feedback=True
    )
    runs = []
    for query in QUERIES:
        reference = off.execute(query.sql)
        pass1 = on.execute(query.sql)
        pass2 = on.execute(query.sql)
        pass3 = on.execute(query.sql)
        runs.append({
            "id": query.id,
            "reference_rows": reference.rows,
            "pass1_rows": pass1.rows,
            "pass2_rows": pass2.rows,
            "pass3_rows": pass3.rows,
            "pass1_analysis": pass1.analysis,
            "pass2_analysis": pass2.analysis,
            "pass3_analysis": pass3.analysis,
        })
    return runs


class TestCorpusDifferentialAndImprovement:
    def test_feedback_never_changes_result_rows(self, corpus_runs):
        for run in corpus_runs:
            assert rows_equal(
                run["reference_rows"], run["pass1_rows"]
            ), run["id"]
            assert rows_equal(
                run["reference_rows"], run["pass2_rows"]
            ), run["id"]
            assert rows_equal(
                run["reference_rows"], run["pass3_rows"]
            ), run["id"]

    def test_second_pass_geomean_qerror_strictly_lower(self, corpus_runs):
        first = workload_qerror(r["pass1_analysis"] for r in corpus_runs)
        second = workload_qerror(r["pass2_analysis"] for r in corpus_runs)
        assert first.node_count > 0 and second.node_count > 0
        assert second.geomean < first.geomean

    def test_third_pass_geomean_qerror_does_not_rise(self, corpus_runs):
        """The EWMA may ripple a hair on shapes whose actuals oscillate;
        beyond 1% the loop is diverging."""
        second = workload_qerror(r["pass2_analysis"] for r in corpus_runs)
        third = workload_qerror(r["pass3_analysis"] for r in corpus_runs)
        assert third.geomean <= second.geomean * 1.01
