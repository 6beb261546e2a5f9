"""The plan cache's statement front: text -> (AST, shape, params).

Parsing and fingerprinting are pure functions of the statement text, so
``PlanCache`` remembers their result per text and ``Orca.optimize``
consults it before ``parse``.  Checked here:

- a text seen before reaches its plan without a call to ``parse`` or
  ``fingerprint`` (counted on the names bound in ``repro.optimizer``,
  which is where a front miss calls them) and answers what a cache-off
  session answers;
- the stored AST is shared, so nothing may write to it: its pickle is
  byte-equal across everything a session does with a statement;
- the front needs no invalidation: after an ANALYZE a seen text is a
  front hit and a plan miss, and the stale plan is never served;
- it is bounded, never keeps a text that does not parse, is bypassed by
  a pre-parsed statement, survives two threads on one session, and is
  per process in a fleet.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
import repro.optimizer
from repro.sql.parser import parse
from repro.workloads import QUERIES

from tests.conftest import make_small_db

SEGMENTS = 8


@pytest.fixture()
def front_calls(monkeypatch):
    """Count calls of ``parse`` / ``fingerprint`` as ``repro.optimizer``
    binds them."""
    calls = Counter()

    def counted(name):
        original = getattr(repro.optimizer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.optimizer, name, wrapper)

    counted("parse")
    counted("fingerprint")
    return calls


def cached(db, **options):
    return repro.connect(db, segments=SEGMENTS, enable_plan_cache=True, **options)


def front_of(session) -> dict:
    """text -> (AST, shape, params), as the session's cache holds it."""
    return dict(session.orca.plan_cache._statements)


# ----------------------------------------------------------------------
# (a) a seen text costs no parse and no fingerprint
# ----------------------------------------------------------------------
def test_second_pass_calls_neither_parse_nor_fingerprint(tpcds_db, front_calls):
    def one_pass(session):
        out = []
        for query in QUERIES:
            execution = session.execute(query.sql)
            result = session.last_result
            out.append((execution.rows, result.output_names, result.plan_cache))
        return out

    with repro.connect(tpcds_db, segments=SEGMENTS) as plain:
        reference = one_pass(plain)
    assert front_calls["parse"] == len(QUERIES) and not front_calls["fingerprint"]
    front_calls.clear()
    with cached(tpcds_db) as session:
        first = one_pass(session)
        assert front_calls == {"parse": len(QUERIES), "fingerprint": len(QUERIES)}
        front_calls.clear()
        second = one_pass(session)
        assert not front_calls
        stats = session.orca.plan_cache.stats()
    assert [kind for *_, kind in first] == ["miss"] * len(QUERIES)
    assert [kind for *_, kind in second] == ["hit"] * len(QUERIES)
    for warm, cold, off in zip(second, first, reference):
        assert warm[:2] == cold[:2] == off[:2]
    assert stats["statement_misses"] == stats["statement_hits"] == len(QUERIES)
    assert stats["statements"] == len(QUERIES)


def test_cache_off_never_consults_a_front(tpcds_db, front_calls):
    with repro.connect(tpcds_db, segments=SEGMENTS) as session:
        for _ in range(2):
            session.optimize(QUERIES[0].sql)
        assert session.orca.plan_cache is None
    assert front_calls == {"parse": 2}


# ----------------------------------------------------------------------
# (b) the stored AST is never written to
# ----------------------------------------------------------------------
def test_stored_asts_are_never_mutated(tpcds_db):
    texts = [query.sql for query in QUERIES]
    with cached(tpcds_db, enable_cardinality_feedback=True) as session:
        for sql in texts:
            session.optimize(sql)
        front = front_of(session)
        assert sorted(front) == sorted(texts)
        before = {sql: pickle.dumps(front[sql][0]) for sql in texts}
        ingests = session.feedback.stats()["ingests"]
        for sql in texts:
            session.optimize(sql)
            session.execute(sql)  # feedback on: ingests the actuals
            session.explain(sql, analyze=True)
        assert session.feedback.stats()["ingests"] >= ingests + 2 * len(texts)
        # A feedback ingest may have dropped plans, never a statement.
        assert all(front_of(session)[sql][0] is front[sql][0] for sql in texts)
    # Every search hits the job limit, so the Planner translates the
    # front's AST of the same text.
    with cached(tpcds_db, search_job_limit=3) as governed:
        for sql in texts:
            assert governed.optimize(sql).plan_source == "planner_fallback"
            before_fallback = pickle.dumps(front_of(governed)[sql][0])
            assert before_fallback == before[sql]
            assert governed.optimize(sql).plan_source == "planner_fallback"
            assert pickle.dumps(front_of(governed)[sql][0]) == before_fallback
        fallback_stats = governed.orca.plan_cache.stats()
    # One parse per text: the repeat and both fallbacks found the AST.
    assert fallback_stats["statement_misses"] == len(texts)
    assert fallback_stats["statement_hits"] == 3 * len(texts)
    for sql in texts:
        assert pickle.dumps(front[sql][0]) == before[sql], sql
        assert pickle.dumps(parse(sql)) == before[sql], sql


# ----------------------------------------------------------------------
# (c) no invalidation: a catalog bump is a front hit and a plan miss
# ----------------------------------------------------------------------
def test_analyze_is_a_front_hit_and_a_plan_miss(front_calls):
    db = make_small_db(t1_rows=400, t2_rows=100)
    sql = "SELECT a, count(*) AS n FROM t2 WHERE b < 500 GROUP BY a ORDER BY a"
    with cached(db) as session:
        old = session.optimize(sql)
        assert session.optimize(sql).plan is old.plan
        assert front_calls == {"parse": 1, "fingerprint": 1}
        rows = session.execute(sql).rows
        db.insert("t2", [(1, 1)] * 50)
        db.analyze()
        after = session.optimize(sql)
        assert after.plan_cache == "miss" and after.plan_source == "orca"
        assert after.plan is not old.plan
        again = session.optimize(sql)
        assert again.plan_cache == "hit" and again.plan is after.plan
        assert session.execute(sql).rows != rows  # 50 more rows of a = 1
        stats = session.orca.plan_cache.stats()
    # Optimized once against the new versions; parsed once in all.
    assert front_calls == {"parse": 1, "fingerprint": 1}
    assert (stats["stores"], stats["stale_evictions"]) == (2, 1)
    assert (stats["statement_misses"], stats["statement_hits"]) == (1, 5)


# ----------------------------------------------------------------------
# (d) bounded; a text that does not parse is never kept
# ----------------------------------------------------------------------
def test_front_is_bounded_by_a_multiple_of_the_plan_capacity(front_calls):
    db = make_small_db(t1_rows=50, t2_rows=50)
    with cached(db, plan_cache_size=4) as session:
        cache = session.orca.plan_cache
        bound = cache.statement_capacity
        assert bound == 4 * (repro.plancache.PlanCache(1).statement_capacity)
        for i in range(10_000):
            session.orca.optimize(f"SELECT a FROM t2 WHERE b = {i}")
        stats = cache.stats()
        assert stats["statements"] == len(front_of(session)) == bound
        assert stats["statement_misses"] == front_calls["parse"] == 10_000
        # The most recent texts are the ones kept.
        assert set(front_of(session)) == {
            f"SELECT a FROM t2 WHERE b = {i}" for i in range(10_000 - bound, 10_000)
        }
        session.orca.optimize("SELECT a FROM t2 WHERE b = 9999")
        assert front_calls["parse"] == 10_000
        assert cache.stats()["misses"] == 1  # one shape: the rest re-bound


def test_a_text_that_does_not_parse_is_not_kept(front_calls):
    db = make_small_db(t1_rows=50, t2_rows=50)
    bad = "SELECT a FROM t2 WHERE"
    with cached(db) as session:
        errors = []
        for _ in range(2):
            with pytest.raises(repro.ParseError) as raised:
                session.optimize(bad)
            errors.append(raised.value)
        assert front_of(session) == {}
    assert front_calls == {"parse": 2}
    assert type(errors[0]) is type(errors[1])
    assert str(errors[0]) == str(errors[1]) and errors[0].code == errors[1].code


# ----------------------------------------------------------------------
# (e) a pre-parsed statement bypasses the front, not the plan cache
# ----------------------------------------------------------------------
def test_pre_parsed_statement_bypasses_the_front(front_calls):
    db = make_small_db(t1_rows=400, t2_rows=100)
    sql = "SELECT a, b FROM t2 WHERE b > 10 ORDER BY a, b LIMIT 7"
    with cached(db) as session:
        rows = session.execute(sql).rows
        stored = session.last_result.plan
        before = session.orca.plan_cache.stats()
        front_calls.clear()
        assert session.execute(parse(sql)).rows == rows
        assert session.last_result.plan_cache == "hit"
        assert session.last_result.plan is stored
        after = session.orca.plan_cache.stats()
    assert front_calls == {"fingerprint": 1}
    for key in ("statement_hits", "statement_misses", "statements", "entries"):
        assert after[key] == before[key], key
    assert after["hits"] == before["hits"] + 1


# ----------------------------------------------------------------------
# (f) two threads on one session
# ----------------------------------------------------------------------
def test_two_threads_never_see_a_torn_entry(eager_thread_switching):
    """The front evicts while both threads probe it (40 texts, room for
    8): every statement still answers for *its* text, and every entry
    left is the parse and fingerprint of its own key."""
    db = make_small_db(t1_rows=50, t2_rows=200)
    texts = [
        f"SELECT a, b FROM t2 WHERE b < {i * 25} ORDER BY a, b" for i in range(40)
    ]
    with repro.connect(db, segments=4) as plain:
        expected = {sql: plain.execute(sql).rows for sql in texts}
    assert len({len(rows) for rows in expected.values()}) > 10
    with repro.connect(
        db, segments=4, enable_plan_cache=True, plan_cache_size=1
    ) as session:
        cache = session.orca.plan_cache
        assert cache.statement_capacity < len(texts)

        def client(offset: int, step: int) -> int:
            for i in range(150):
                sql = texts[(offset + i * step) % len(texts)]
                assert session.execute(sql).rows == expected[sql], sql
            return 150

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(client, 0, 7), pool.submit(client, 3, 11)]
            assert [f.result() for f in futures] == [150, 150]
        front = front_of(session)
        stats = cache.stats()
    assert 0 < len(front) <= cache.statement_capacity
    assert stats["statement_hits"] + stats["statement_misses"] == 300
    for sql, (stmt, shape, params) in front.items():
        assert (shape, params) == repro.plancache.fingerprint(parse(sql))
        assert pickle.dumps(stmt) == pickle.dumps(parse(sql))


def test_front_counts_are_exact_under_two_threads(eager_thread_switching):
    cache = repro.plancache.PlanCache(1)
    texts = [f"text {i}" for i in range(cache.statement_capacity + 3)]

    def client(offset: int, step: int) -> None:
        for i in range(20_000):
            text = texts[(offset + i * step) % len(texts)]
            seen = cache.statement(text)
            if seen is None:
                cache.remember_statement(text, text, (text,), (text,))
            else:
                assert seen == (text, (text,), (text,))

    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(client, 0, 1), pool.submit(client, 5, 3)]:
            future.result()
    stats = cache.stats()
    assert stats["statement_hits"] + stats["statement_misses"] == 40_000
    assert stats["statements"] == cache.statement_capacity


# ----------------------------------------------------------------------
# (g) one front per worker process
# ----------------------------------------------------------------------
def test_each_fleet_worker_parses_a_repeated_text_once(monkeypatch, tmp_path):
    db = make_small_db(t1_rows=400, t2_rows=100)
    sql = "SELECT a, count(*) AS n FROM t1 GROUP BY a ORDER BY a LIMIT 5"
    log = tmp_path / "parses"
    original = repro.optimizer.parse

    def logged_parse(text):
        # Forked workers inherit this; one short O_APPEND write each.
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(text)

    monkeypatch.setattr(repro.optimizer, "parse", logged_parse)
    with repro.connect_fleet(
        db, workers=2, segments=4, enable_plan_cache=True,
        policy="round-robin",
    ) as fleet:
        rows = [fleet.execute(sql).rows for _ in range(8)]
        workers = fleet.worker_stats()
    assert all(r == rows[0] for r in rows)
    parses = Counter(log.read_text(encoding="utf-8").split())
    assert sorted(parses) == sorted(str(w["pid"]) for w in workers.values())
    assert set(parses.values()) == {1}
    for stats in workers.values():
        assert stats["plan_cache"]["statement_misses"] == 1
        assert stats["plan_cache"]["statement_hits"] == 3
