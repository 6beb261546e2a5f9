"""Request ids: the dense per-process ids optimization requests are
keyed by (:func:`repro.props.required.intern_id`).

An id is a pure constant-factor optimization: equal requests share one,
distinct requests never do, and a full table degrades to structural
ids.  Every Memo dedup decision, job count and plan must therefore be
identical whether the table is cold, warm or full.
"""

from __future__ import annotations

import pytest

from repro.config import OptimizerConfig
from repro.optimizer import Orca
from repro.props import required

from tests.conftest import make_small_db


@pytest.fixture(scope="module")
def db():
    return make_small_db(t1_rows=600, t2_rows=120)


def test_search_is_identical_cold_and_warm(db):
    """A second session over ids the first assigned makes every search
    decision the first made, with the stats and property memos
    answering."""
    sql = (
        "SELECT t1.c, sum(t2.b) FROM t1, t2 "
        "WHERE t1.a = t2.a AND t1.b > 30 GROUP BY t1.c"
    )
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
    assert cold.search_stats.derivation_cache_hits > 0
    assert cold.search_stats.property_cache_hits > 0


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
            required, "MAX_INTERNED_IDS", len(required._ids)
        )
        before = len(required._ids)
        fresh = [RequiredProps(HashedDist((10_000 + n,))) for n in range(300)]
        assert len(required._ids) == before
        assert len({r.id for r in fresh}) == 300
        assert all(isinstance(r.id, tuple) for r in fresh)

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

        before = len(required._ids)
        monkeypatch.setattr(required, "MAX_INTERNED_IDS", before)
        capped = run()
        assert len(required._ids) == before
        keys = {
            key for r in capped for g in r.memo.groups for key in g.contexts
        }
        assert any(isinstance(k, int) for k in keys)
        assert any(isinstance(k, tuple) for k in keys)
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
                sizes.append((len(required._ids), peak_kb()))
        (ids_100, rss_100), (ids_300, rss_300) = sizes
        # Column ids restart with every statement, so the same requests
        # recur: the table stops growing after the first round.
        assert ids_300 == ids_100 <= required.MAX_INTERNED_IDS
        assert rss_300 - rss_100 < 4096  # KB

    def test_ids_stay_a_bijection_under_racing_threads(
        self, monkeypatch, eager_thread_switching
    ):
        """Sessions may optimize from threads of one process: racing
        misses must neither hand one id to two keys (a shared id makes
        ``Group.contexts`` return another request's context) nor give
        one key two ids."""
        import threading
        import time

        class YieldingKey(tuple):
            """Hashing a key that runs Python code lets the interpreter
            switch threads mid-probe.  This key always does, so the race
            needs no luck to show."""

            def __hash__(self):
                time.sleep(0)
                return tuple.__hash__(self)

        monkeypatch.setattr(required, "_ids", {})
        threads, own, shared = 8, 60, 60
        barrier = threading.Barrier(threads)
        seen: list[dict] = [{} for _ in range(threads)]

        def intern(slot: int) -> None:
            keys = [YieldingKey(("own", slot, n)) for n in range(own)]
            keys += [YieldingKey(("shared", n)) for n in range(shared)]
            barrier.wait(timeout=10)
            for key in keys:
                seen[slot][key] = required.intern_id(key)

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
        assert merged == required._ids
