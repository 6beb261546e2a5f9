"""Key interning and optimizer memoization: semantics and determinism.

Interning is a pure constant-factor optimization: a ``HashedKey`` *is*
the tuple it wraps, so equality, hashing, and therefore every Memo dedup
decision and job count must be bit-identical whether the intern table is
cold, warm, or disabled-by-fullness.  These tests pin that contract plus
the bookkeeping the benchmark gate relies on (deterministic hit/miss
counters surfaced through :class:`repro.optimizer.SearchStats`).
"""

from __future__ import annotations

import pickle

import pytest

from repro import interning
from repro.config import OptimizerConfig
from repro.interning import HashedKey, clear_intern_table, intern_key, intern_stats
from repro.optimizer import Orca

from tests.conftest import make_small_db


@pytest.fixture(scope="module")
def db():
    return make_small_db(t1_rows=600, t2_rows=120)


class TestInternKey:
    def test_structurally_equal_keys_share_identity(self):
        a = intern_key(("Join", (1, 2), "inner"))
        b = intern_key(("Join", (1, 2), "inner"))
        assert a is b

    def test_hashed_key_is_the_tuple(self):
        key = ("Scan", "t1", (0, 1))
        hashed = intern_key(key)
        assert hashed == key
        assert hash(hashed) == hash(key)
        assert isinstance(hashed, tuple)
        # Usable interchangeably as a dict key.
        assert {key: 1}[hashed] == 1
        assert {hashed: 1}[key] == 1

    def test_distinct_keys_stay_distinct(self):
        assert intern_key((1,)) is not intern_key((2,))
        assert intern_key((1,)) != intern_key((1.5,))

    def test_interning_a_hashed_key_is_idempotent(self):
        hashed = intern_key(("Filter", 7))
        assert intern_key(hashed) is hashed

    def test_counters_and_clear(self):
        clear_intern_table()
        before = intern_stats()
        assert before == {"hits": 0, "misses": 0, "size": 0}
        intern_key(("x", 1))
        intern_key(("x", 1))
        stats = intern_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["size"] == 1
        clear_intern_table()
        assert intern_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_full_table_still_caches_hashes(self, monkeypatch):
        clear_intern_table()
        monkeypatch.setattr(interning, "MAX_INTERNED_KEYS", 1)
        first = intern_key(("a",))
        overflow = intern_key(("b",))
        # Not stored (table full), but still a HashedKey with the right
        # equality semantics — and the stored key keeps its identity.
        assert isinstance(overflow, HashedKey)
        assert overflow == ("b",)
        assert intern_key(("b",)) is not None
        assert intern_key(("a",)) is first
        clear_intern_table()

    def test_pickled_hashed_key_rehashes(self):
        """String hashes are salted per process, so the cached hash must
        not travel: the pickle holds the tuple alone."""
        hashed = HashedKey(("Scan", "t1"))
        blob = pickle.dumps(hashed)
        assert b"_hash" not in blob
        clone = pickle.loads(blob)
        assert type(clone) is HashedKey
        assert clone == hashed and hash(clone) == hash(("Scan", "t1"))


class TestOptimizerMemoization:
    def test_counters_surface_in_search_stats(self, db):
        orca = Orca(db, config=OptimizerConfig(segments=8))
        sql = "SELECT t1.a, count(*) FROM t1, t2 WHERE t1.a = t2.a GROUP BY t1.a"
        stats = orca.optimize(sql).search_stats
        assert stats.intern_hits + stats.intern_misses > 0
        assert stats.derivation_cache_hits > 0
        assert stats.property_cache_hits > 0

    def test_warm_table_turns_misses_into_hits(self, db):
        clear_intern_table()
        orca = Orca(db, config=OptimizerConfig(segments=8))
        sql = "SELECT b, count(*) FROM t1 GROUP BY b"
        cold = orca.optimize(sql).search_stats
        warm = orca.optimize(sql).search_stats
        assert cold.intern_misses > 0
        # Every key the second pass needs was interned by the first.
        assert warm.intern_misses == 0
        assert warm.intern_hits > 0
        # The corpus from a cold table, at scale 0.1 / 8 segments: the
        # counts behind the 0.7623 hit rate, exactly.  The singleton
        # distribution specs keep their key for the life of the process;
        # key them first so the misses do not depend on which of them an
        # earlier test touched (a fresh process would count two more).
        from repro.props.distribution import (
            ANY_DIST, RANDOM, REPLICATED, SINGLETON,
        )
        from repro.workloads import QUERIES, build_populated_db

        for spec in (ANY_DIST, RANDOM, REPLICATED, SINGLETON):
            spec.key()
        corpus_db = build_populated_db(scale=0.1)
        clear_intern_table()
        orca = Orca(corpus_db, config=OptimizerConfig(segments=8))
        stats = [orca.optimize(q.sql).search_stats for q in QUERIES]
        assert sum(s.intern_hits for s in stats) == 9420
        assert sum(s.intern_misses for s in stats) == 2937

    def test_search_is_identical_cold_and_warm(self, db):
        """Interning must not change any search decision, only speed."""
        sql = (
            "SELECT t1.c, sum(t2.b) FROM t1, t2 "
            "WHERE t1.a = t2.a AND t1.b > 30 GROUP BY t1.c"
        )
        clear_intern_table()
        cold = Orca(db, config=OptimizerConfig(segments=8)).optimize(sql)
        warm = Orca(db, config=OptimizerConfig(segments=8)).optimize(sql)
        for field in ("num_groups", "num_gexprs", "jobs_executed",
                      "xform_count", "kind_counts", "pruned_alternatives",
                      "costed_alternatives"):
            assert getattr(cold.search_stats, field) == getattr(
                warm.search_stats, field
            ), field
        assert cold.plan.explain() == warm.plan.explain()
        assert cold.plan.cost == warm.plan.cost

    def test_derivation_cache_changes_counters_not_plans(self, db):
        """``enable_derivation_cache`` gates the pure property memos
        (op floors, delivered props).  Child request alternatives are
        not among them: each physical operator builds its own once,
        flag or no flag."""
        sql = (
            "SELECT t1.c, sum(t2.b) FROM t1, t2 "
            "WHERE t1.a = t2.a AND t1.b > 30 GROUP BY t1.c"
        )
        on = Orca(db, config=OptimizerConfig(
            segments=8, enable_derivation_cache=True,
        )).optimize(sql)
        off = Orca(db, config=OptimizerConfig(
            segments=8, enable_derivation_cache=False,
        )).optimize(sql)
        assert on.search_stats.property_cache_hits > 0
        assert off.search_stats.property_cache_hits == 0
        assert on.plan.explain() == off.plan.explain()
        assert on.plan.cost == off.plan.cost
        assert on.search_stats.num_groups == off.search_stats.num_groups
        assert on.search_stats.num_gexprs == off.search_stats.num_gexprs


class TestRequestIdTable:
    """Request ids (``intern_id``) are capped, never evicted: live
    requests hold them, so a full table must degrade to structural ids
    without changing a single search decision."""

    SHAPES = [
        f"SELECT {cols}, count(*) FROM t1, t2 WHERE t1.a = t2.a "
        f"GROUP BY {cols} ORDER BY {order}"
        for cols, order in [
            ("t1.a", "t1.a"), ("t1.b", "t1.b DESC"), ("t1.c", "t1.c"),
            ("t2.b", "t2.b"), ("t1.a, t1.b", "t1.b, t1.a"),
            ("t1.b, t2.b", "t2.b DESC, t1.b"), ("t1.c, t2.b", "t1.c"),
            ("t1.a, t1.c", "t1.c DESC"),
        ]
    ]

    def test_ids_past_the_cap_are_structural(self, monkeypatch):
        from repro.props.distribution import HashedDist
        from repro.props.required import RequiredProps

        monkeypatch.setattr(
            interning, "MAX_INTERNED_IDS", len(interning._ids)
        )
        before = len(interning._ids)
        fresh = [RequiredProps(HashedDist((10_000 + n,))) for n in range(300)]
        assert len(interning._ids) == before
        assert len({r.id for r in fresh}) == 300
        assert all(isinstance(r.id, HashedKey) for r in fresh)

    def test_search_is_identical_once_the_table_is_full(self, db, monkeypatch):
        # Sort orders no other test asks for, so their requests are new.
        shapes = [
            "SELECT t1.a, t1.b, t1.c, t2.b FROM t1, t2 WHERE t1.a = t2.a "
            f"ORDER BY {order}"
            for order in (
                "t1.c DESC, t2.b, t1.b DESC, t1.a",
                "t2.b DESC, t1.c DESC, t1.a DESC, t1.b",
            )
        ] + self.SHAPES

        def run():
            orca = Orca(db, config=OptimizerConfig(segments=8))
            return [orca.optimize(sql) for sql in shapes]

        before = len(interning._ids)
        monkeypatch.setattr(interning, "MAX_INTERNED_IDS", before)
        capped = run()
        assert len(interning._ids) == before
        keys = {
            key for r in capped for g in r.memo.groups for key in g.contexts
        }
        assert any(isinstance(k, int) for k in keys)
        assert any(isinstance(k, HashedKey) for k in keys)
        monkeypatch.undo()
        for a, b in zip(capped, run()):
            assert a.plan.explain() == b.plan.explain()
            assert a.plan.cost == b.plan.cost
            for field in ("jobs_executed", "num_gexprs", "kind_counts",
                          "pruned_alternatives", "costed_alternatives",
                          "property_cache_hits", "derivation_cache_hits"):
                assert getattr(a.search_stats, field) == getattr(
                    b.search_stats, field
                ), field

    def test_table_and_rss_stay_flat_over_300_statements(self, db):
        import resource

        session_orca = Orca(db, config=OptimizerConfig(segments=8))

        def peak_kb():
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        sizes = []
        for i in range(300):
            session_orca.optimize(self.SHAPES[i % len(self.SHAPES)])
            if i in (99, 299):
                sizes.append((len(interning._ids), peak_kb()))
        (ids_100, rss_100), (ids_300, rss_300) = sizes
        # Column ids restart with every statement, so the same requests
        # recur: the table stops growing after the first round.
        assert ids_300 == ids_100 <= interning.MAX_INTERNED_IDS
        assert rss_300 - rss_100 < 4096  # KB

    def test_ids_stay_a_bijection_under_racing_threads(
        self, monkeypatch, eager_thread_switching
    ):
        """``SessionPool`` optimizes from threads in one process: racing
        misses must neither hand one id to two keys (a shared id makes
        ``Group.contexts`` return another request's context) nor give
        one key two ids."""
        import threading
        import time

        class YieldingKey(tuple):
            """Request keys are tuples of ``HashedKey``: hashing one runs
            Python code, where the interpreter may switch threads.  This
            key always does, so the race needs no luck to show."""

            def __hash__(self):
                time.sleep(0)
                return tuple.__hash__(self)

        monkeypatch.setattr(interning, "_ids", {})
        threads, own, shared = 8, 60, 60
        barrier = threading.Barrier(threads)
        seen: list[dict] = [{} for _ in range(threads)]

        def intern(slot: int) -> None:
            keys = [YieldingKey(("own", slot, n)) for n in range(own)]
            keys += [YieldingKey(("shared", n)) for n in range(shared)]
            barrier.wait(timeout=10)
            for key in keys:
                seen[slot][key] = interning.intern_id(key)

        pool = [threading.Thread(target=intern, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in pool)

        merged: dict = {}
        for mapping in seen:
            for key, ident in mapping.items():
                assert merged.setdefault(key, ident) == ident, key
        assert len(merged) == threads * own + shared
        assert sorted(merged.values()) == list(range(len(merged)))
        assert merged == interning._ids
