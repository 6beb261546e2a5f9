"""Parameterized plan cache (Section 4.2 remarks on optimization cost).

A normalized query fingerprint (literals replaced by parameter markers)
keys compiled plans by (query shape, optimizer config, catalog version).
A repeat of the same statement is an exact *hit*; the same shape with
different literals is a *rebind* — the nodes of the cached physical plan
that hold a changed constant are rebuilt around the new value and every
other subtree is shared, skipping the Memo search entirely.  These
tests pin down the keying rules, the rebind row-level correctness,
invalidation on catalog changes, LRU eviction, and the conservative
fall-back to a miss whenever re-binding would be unsound.  What a hit
shares with the stored tree, and that nothing ever writes to it, is
``tests/test_plan_immutability.py``.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import OptimizerConfig
from repro.engine import Cluster, Executor
from repro.optimizer import Orca
from repro.plancache import PlanCache, fingerprint
from repro.sql.parser import parse
from repro.trace import Tracer

from tests.conftest import make_small_db, rows_equal
from tests.helpers import plan_operators


def _cached_orca(db, size=8, tracer=None, **kw):
    config = OptimizerConfig(segments=8, enable_plan_cache=True, **kw)
    orca = Orca(db, config=config, tracer=tracer) if tracer else Orca(db, config=config)
    # A cache of ``size`` plans in place of the default-capacity one.
    orca.plan_cache = PlanCache(size, tracer=orca.tracer)
    return orca


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def test_fingerprint_ignores_literal_values():
    s1, p1 = fingerprint(parse("SELECT a FROM t1 WHERE b = 5"))
    s2, p2 = fingerprint(parse("SELECT a FROM t1 WHERE b = 99"))
    assert s1 == s2
    assert p1 == (5,) and p2 == (99,)


def test_fingerprint_distinguishes_shapes():
    s1, _ = fingerprint(parse("SELECT a FROM t1 WHERE b = 5"))
    s2, _ = fingerprint(parse("SELECT a FROM t1 WHERE a = 5"))
    s3, _ = fingerprint(parse("SELECT a FROM t1 WHERE b > 5"))
    assert len({s1, s2, s3}) == 3


def test_fingerprint_in_list_is_parameterized_by_length():
    s1, p1 = fingerprint(parse("SELECT a FROM t1 WHERE b IN (1, 2, 3)"))
    s2, p2 = fingerprint(parse("SELECT a FROM t1 WHERE b IN (7, 8, 9)"))
    s3, _ = fingerprint(parse("SELECT a FROM t1 WHERE b IN (1, 2)"))
    assert s1 == s2
    assert p1 == (1, 2, 3) and p2 == (7, 8, 9)
    assert s3 != s1  # a different marker count is a different shape


def test_fingerprint_literal_type_is_part_of_the_parameter():
    s1, p1 = fingerprint(parse("SELECT a FROM t1 WHERE b = 5"))
    s2, p2 = fingerprint(parse("SELECT a FROM t1 WHERE b = 5.0"))
    s3, p3 = fingerprint(parse("SELECT a FROM t1 WHERE b = 6"))
    # 5 == 5.0, so the params alone could not tell the two apart: the
    # marker carries the type, and the two statements are two shapes.
    assert p1 == p2 and s1 != s2
    assert type(p1[0]) is int and type(p2[0]) is float
    assert s1 == s3 and p1 != p3


def test_fingerprint_in_list_is_typed_per_element():
    s1, _ = fingerprint(parse("SELECT a FROM t1 WHERE b IN (1, 2)"))
    s2, _ = fingerprint(parse("SELECT a FROM t1 WHERE b IN (1, 2.0)"))
    s3, _ = fingerprint(parse("SELECT a FROM t1 WHERE b IN (3, 4)"))
    assert s1 != s2 and s1 == s3


# ----------------------------------------------------------------------
# Hit / rebind / miss through the optimizer
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def cache_db():
    return make_small_db(t1_rows=2000, t2_rows=300)


def test_exact_hit_skips_search(cache_db):
    tracer = Tracer()
    orca = _cached_orca(cache_db, tracer=tracer)
    sql = "SELECT a, b FROM t1 WHERE b = 42 ORDER BY a LIMIT 10"
    first = orca.optimize(sql)
    second = orca.optimize(sql)

    assert first.plan_cache == "miss"
    assert second.plan_cache == "hit"
    # The cached result bypassed the Memo search entirely.
    assert second.memo is None
    assert second.search_stats.jobs_executed == 0
    assert second.plan.explain() == first.plan.explain()
    assert orca.plan_cache.stats()["hits"] == 1
    assert tracer.count("plan_cache_hit") == 1
    assert tracer.count("plan_cache_miss") == 1
    assert tracer.count("plan_cache_store") == 1


#: One text, four literals that compare equal pairwise or are NULL.
_TYPED_LITERALS = ("1", "1.0", "TRUE", "NULL")


@pytest.mark.parametrize(
    "order", [_TYPED_LITERALS, _TYPED_LITERALS[::-1]], ids=["int_first", "null_first"]
)
def test_literal_type_is_not_lost_on_a_hit(cache_db, order):
    """``(1,) == (1.0,) == (True,)``: whichever variant is optimized
    first, the others are not exact hits on its plan.  Rows *and* the
    Python types of their values are those of a cache-off session."""
    template = (
        "SELECT a, {lit} AS x, b + {lit} AS y FROM t1 "
        "WHERE c = 'x' ORDER BY a, b LIMIT 5"
    )

    def typed(rows):
        return [[(type(v).__name__, v) for v in row] for row in rows]

    with repro.connect(cache_db, segments=8) as plain, repro.connect(
        cache_db, segments=8, enable_plan_cache=True
    ) as cached:
        for _ in range(2):  # the second pass is all exact hits
            for lit in order:
                if lit in ("TRUE", "NULL"):
                    sql = template.replace("b + {lit}", "b + 1").format(lit=lit)
                else:
                    sql = template.format(lit=lit)
                assert typed(cached.execute(sql).rows) == typed(
                    plain.execute(sql).rows
                ), lit
        stats = cached.orca.plan_cache.stats()
    assert (stats["misses"], stats["hits"]) == (4, 4)


def test_rebind_returns_identical_rows(cache_db):
    orca = _cached_orca(cache_db)
    fresh = Orca(cache_db, config=OptimizerConfig(segments=8))
    cluster = Cluster(cache_db, segments=8)
    template = "SELECT a, b FROM t1 WHERE b = {v} ORDER BY a, b LIMIT 50"

    orca.optimize(template.format(v=7))  # warm the cache
    for v in (123, 7, 456):
        cached = orca.optimize(template.format(v=v))
        reference = fresh.optimize(template.format(v=v))
        out_cached = Executor(cluster).execute(cached.plan, cached.output_cols)
        out_fresh = Executor(cluster).execute(
            reference.plan, reference.output_cols
        )
        assert rows_equal(out_cached.rows, out_fresh.rows), v
        assert cached.plan_cache in ("hit", "rebind")
    assert orca.plan_cache.stats()["rebinds"] >= 2


def test_rebind_handles_in_lists_and_multiple_params(cache_db):
    orca = _cached_orca(cache_db)
    fresh = Orca(cache_db, config=OptimizerConfig(segments=8))
    cluster = Cluster(cache_db, segments=8)
    template = (
        "SELECT t1.a, count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.a "
        "WHERE t1.b IN ({x}, {y}) AND t2.b < {z} "
        "GROUP BY t1.a ORDER BY t1.a LIMIT 20"
    )
    orca.optimize(template.format(x=1, y=2, z=100))
    cached = orca.optimize(template.format(x=33, y=44, z=250))
    assert cached.plan_cache == "rebind"
    reference = fresh.optimize(template.format(x=33, y=44, z=250))
    out_cached = Executor(cluster).execute(cached.plan, cached.output_cols)
    out_fresh = Executor(cluster).execute(
        reference.plan, reference.output_cols
    )
    assert rows_equal(out_cached.rows, out_fresh.rows)


def test_rebound_operator_answers_with_its_own_key(tpcds_db):
    """A re-bound Filter used to keep the interned key of the plan it
    was copied from (``Operator`` pickled ``_cached_key`` along), so it
    compared equal to, and hashed like, a filter on the old literal."""
    template = (
        "SELECT i_brand, count(*) AS n FROM item WHERE i_manufact_id = {} "
        "GROUP BY i_brand ORDER BY i_brand"
    )
    with repro.connect(tpcds_db, segments=8, enable_plan_cache=True) as session:
        original = session.optimize(template.format(52))
        rebound = session.optimize(template.format(7))
    assert (original.plan_cache, rebound.plan_cache) == ("miss", "rebind")

    def the_filter(plan):
        (node,) = [n for n in plan.walk() if n.op.name == "Filter"]
        return node.op

    old, new = the_filter(original.plan), the_filter(rebound.plan)
    assert old.key()[1][3] == ("lit", "int4", 52)
    assert new.key()[1][3] == ("lit", "int4", 7)
    assert new != old
    fresh = type(new)(new.predicate.substitute({}))
    assert new == fresh and hash(new) == hash(fresh)
    assert "= 7)" in rebound.plan.explain()


def test_catalog_change_invalidates(cache_db):
    orca = _cached_orca(cache_db)
    sql = "SELECT a FROM t2 WHERE b = 5"
    assert orca.optimize(sql).plan_cache == "miss"
    assert orca.optimize(sql).plan_cache == "hit"
    cache_db.analyze("t2")  # bumps t2's catalog version
    assert orca.optimize(sql).plan_cache == "miss"
    assert orca.optimize(sql).plan_cache == "hit"


def test_lru_eviction(cache_db):
    tracer = Tracer()
    orca = _cached_orca(cache_db, size=2, tracer=tracer)
    q1 = "SELECT a FROM t1 WHERE b = 1"
    q2 = "SELECT b FROM t1 WHERE a = 2"
    q3 = "SELECT a, b FROM t2 WHERE b = 3"
    orca.optimize(q1)
    orca.optimize(q2)
    orca.optimize(q3)  # evicts q1's entry (least recently used)
    assert orca.plan_cache.stats()["evictions"] == 1
    assert tracer.count("plan_cache_evict") == 1
    assert orca.optimize(q1).plan_cache == "miss"
    assert orca.optimize(q3).plan_cache == "hit"


def test_duplicate_literals_are_not_rebindable(cache_db):
    """Two identical literals may have been merged or constant-folded by
    normalization, so the mapping old->new is ambiguous: the entry still
    serves exact repeats but different parameters must re-optimize."""
    orca = _cached_orca(cache_db)
    template = "SELECT a FROM t1 WHERE b > {v} AND a > {v}"
    orca.optimize(template.format(v=5))
    assert orca.optimize(template.format(v=5)).plan_cache == "hit"
    assert orca.optimize(template.format(v=9)).plan_cache == "miss"


def test_type_changing_parameters_do_not_rebind(cache_db):
    orca = _cached_orca(cache_db)
    orca.optimize("SELECT a FROM t1 WHERE b = 5")
    result = orca.optimize("SELECT a FROM t1 WHERE b = 5.5")
    assert result.plan_cache == "miss"


def test_cache_disabled_by_default(cache_db):
    orca = Orca(cache_db, config=OptimizerConfig(segments=8))
    assert orca.plan_cache is None
    assert orca.optimize("SELECT a FROM t1 WHERE b = 5").plan_cache == ""


def test_plancache_unit_counters():
    cache = PlanCache(4)
    stats = cache.stats()
    assert stats == {
        "hits": 0, "misses": 0, "evictions": 0, "rebinds": 0,
        "stores": 0, "stale_evictions": 0, "feedback_invalidations": 0,
        "shared_hits": 0, "shared_stores": 0,
        "entries": 0,
        "statement_hits": 0, "statement_misses": 0, "statements": 0,
    }


def test_catalog_bump_evicts_stale_entries(cache_db):
    """Satellite regression: a catalog stats-version bump must *evict*
    entries keyed by the old versions — before, they merely became
    unreachable and squatted in the LRU until capacity pushed them out.
    Eviction counts are pinned exactly."""
    tracer = Tracer()
    orca = _cached_orca(cache_db, size=8, tracer=tracer)
    q1 = "SELECT a FROM t1 WHERE b = 1"
    q2 = "SELECT a FROM t2 WHERE b = 2"
    orca.optimize(q1)
    orca.optimize(q2)
    assert len(orca.plan_cache) == 2
    assert orca.plan_cache.stats()["stale_evictions"] == 0

    cache_db.analyze("t2")  # bumps t2's catalog version
    orca.optimize(q1)  # first optimize after the bump triggers eviction

    stats = orca.plan_cache.stats()
    # Both old entries were keyed by the pre-bump version vector: both
    # are stale, both evicted; q1's re-optimization stored one new entry.
    assert stats["stale_evictions"] == 2
    assert stats["evictions"] == 2
    assert len(orca.plan_cache) == 1
    assert tracer.count("plan_cache_evict") == 2

    # A second optimize with unchanged versions evicts nothing further.
    orca.optimize(q2)
    assert orca.plan_cache.stats()["stale_evictions"] == 2
    assert len(orca.plan_cache) == 2

    # Rebind entries are covered too: q1's entry (just re-stored) serves
    # re-binds for other b-values; bump t1 and it must be gone (a rebind
    # against stale stats would silently reuse a plan chosen for
    # different data).  Two live entries -> two more stale evictions.
    assert orca.optimize(
        "SELECT a FROM t1 WHERE b = 88"
    ).plan_cache == "rebind"
    cache_db.analyze("t1")
    orca.optimize(q1)
    assert orca.plan_cache.stats()["stale_evictions"] == 4
    assert len(orca.plan_cache) == 1


class RecordingSharedStore:
    """In-process stand-in for repro.fleet.shared.SharedPlanStore: the
    same protocol (get/put/evict_stale/invalidate_shapes) over a plain
    dict, so the cache<->shared contract is testable without processes."""

    def __init__(self):
        self.entries = {}
        self.meta = {}
        self.stale_sweeps = []
        self.shape_sweeps = []

    def get(self, key):
        return self.entries.get(key)

    def put(self, key, blob, *, shapes=frozenset(), catalog_versions=()):
        self.entries[key] = blob
        self.meta[key] = (shapes, catalog_versions)

    def evict_stale(self, current_versions):
        self.stale_sweeps.append(current_versions)
        stale = [k for k, (_, v) in self.meta.items()
                 if v != current_versions]
        for k in stale:
            del self.entries[k]
            del self.meta[k]
        return len(stale)

    def invalidate_shapes(self, changed):
        self.shape_sweeps.append(changed)
        dead = [k for k, (s, _) in self.meta.items() if s & changed]
        for k in dead:
            del self.entries[k]
            del self.meta[k]
        return len(dead)


def test_catalog_bump_evicts_shared_store_entries_too(cache_db):
    """Fleet satellite: the stale sweep must reach the shared backing
    store, or a restarted/other worker would adopt a plan optimized
    against the old statistics."""
    shared = RecordingSharedStore()
    orca = _cached_orca(cache_db)
    orca.plan_cache.shared = shared
    q1 = "SELECT a FROM t1 WHERE b = 1"
    orca.optimize(q1)
    assert len(shared.entries) == 1
    assert orca.plan_cache.stats()["shared_stores"] == 1

    cache_db.analyze("t1")
    orca.optimize(q1)  # sweep fires locally *and* in the shared store

    assert len(shared.stale_sweeps) == 1
    assert orca.plan_cache.stats()["stale_evictions"] == 1
    # The store holds exactly the re-optimized entry, not the stale one.
    assert len(shared.entries) == 1
    assert orca.plan_cache.stats()["shared_stores"] == 2


def test_local_miss_is_served_from_shared_store(cache_db):
    shared = RecordingSharedStore()
    warm = _cached_orca(cache_db)
    cold = _cached_orca(cache_db)
    warm.plan_cache.shared = shared
    cold.plan_cache.shared = shared
    sql = "SELECT a FROM t2 WHERE b = 5"
    first = warm.optimize(sql)
    assert first.plan_cache == "miss"
    second = cold.optimize(sql)
    assert second.plan_cache == "hit"
    assert second.plan.explain() == first.plan.explain()
    assert cold.plan_cache.stats()["shared_hits"] == 1


# ----------------------------------------------------------------------
# Hypothesis property: re-binding is row-identical to re-optimizing
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def prop_env():
    db = make_small_db(t1_rows=1500, t2_rows=300)
    return (
        _cached_orca(db, size=64),
        Orca(db, config=OptimizerConfig(segments=8)),
        Cluster(db, segments=8),
    )


def _assert_rebound_rows_match(prop_env, sql, expect_ops=()):
    """``sql`` through the cached optimizer returns the rows a fresh
    optimization does, and serving it leaves the stored tree alone."""
    cached_orca, fresh_orca, cluster = prop_env
    stored = [
        (entry.plan, pickle.dumps(entry.plan))
        for entry in cached_orca.plan_cache._entries.values()
    ]
    cached = cached_orca.optimize(sql)
    fresh = fresh_orca.optimize(sql)
    for name in expect_ops:
        assert name in plan_operators(cached.plan), (name, cached.plan.explain())
    out_cached = Executor(cluster).execute(cached.plan, cached.output_cols)
    out_fresh = Executor(cluster).execute(fresh.plan, fresh.output_cols)
    assert rows_equal(out_cached.rows, out_fresh.rows), sql
    for plan, blob in stored:
        assert pickle.dumps(plan) == blob
    return cached


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(min_value=-50, max_value=500),
    span=st.integers(min_value=0, max_value=400),
    lim=st.integers(min_value=1, max_value=60),
)
def test_property_rebound_plans_return_identical_rows(prop_env, lo, span, lim):
    _assert_rebound_rows_match(
        prop_env,
        f"SELECT a, b FROM t1 WHERE b BETWEEN {lo} AND {lo + span} "
        f"ORDER BY a, b LIMIT {lim}",
    )


@settings(max_examples=25, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-5, max_value=110),
        min_size=3, max_size=3, unique=True,
    ),
    bound=st.integers(min_value=200, max_value=1100),
)
def test_property_rebound_in_lists_return_identical_rows(
    prop_env, values, bound
):
    x, y, z = values
    cached = _assert_rebound_rows_match(
        prop_env,
        f"SELECT a, b FROM t1 WHERE b IN ({x}, {y}, {z}) AND a < {bound} "
        "ORDER BY a, b",
        expect_ops=("Filter",),
    )
    (node,) = [n for n in cached.plan.walk() if n.op.name == "Filter"]
    in_list = node.op.predicate.children[0]
    assert in_list.values == (x, y, z)
    assert in_list.key()[3] == (x, y, z)


@settings(max_examples=25, deadline=None)
@given(
    lo=st.integers(min_value=80, max_value=105),
    tag=st.sampled_from("xyzw"),
    open_ended=st.booleans(),
)
def test_property_rebound_index_bounds_return_identical_rows(
    prop_env, lo, tag, open_ended
):
    """``lo``/``hi`` of an index scan are bare values on the operator,
    not Literals; the residual beside them is an ordinary expression."""
    pred = f"b > {lo}" if open_ended else f"b = {lo}"
    cached = _assert_rebound_rows_match(
        prop_env,
        f"SELECT b, count(*) AS n FROM t1 WHERE {pred} AND c = '{tag}' "
        "GROUP BY b ORDER BY b",
        expect_ops=("IndexScan",),
    )
    (node,) = [n for n in cached.plan.walk() if n.op.name == "IndexScan"]
    assert node.op.lo == lo
    assert node.op.hi == (None if open_ended else lo)
    assert node.op.key()[4:6] == (node.op.lo, node.op.hi)
    assert repr(tag) in repr(node.op.residual)
