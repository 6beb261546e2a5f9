"""The pg_stat_statements-style query-statistics store."""

from __future__ import annotations

import io

import repro
from repro.__main__ import main
from repro.obs import FlightRecorder, SlowQueryLog
from repro.telemetry import (
    QueryStatsStore,
    fingerprint_query,
    normalize_sql,
)
from repro.telemetry import stats_store as stats_module
from repro.workloads import QUERIES


class TestNormalization:
    def test_literals_become_placeholders(self):
        assert normalize_sql(
            "SELECT t1.a FROM t1 WHERE t1.b > 40 AND t1.c = 'xyz'"
        ) == "SELECT t1.a FROM t1 WHERE t1.b > ? AND t1.c = ?"

    def test_whitespace_collapsed(self):
        assert normalize_sql("SELECT  a\n  FROM   t") == "SELECT a FROM t"

    def test_doubled_quotes_stay_inside_one_literal(self):
        assert normalize_sql("SELECT a FROM t WHERE c = 'it''s'") == \
            "SELECT a FROM t WHERE c = ?"

    def test_constants_share_a_fingerprint(self):
        fp1, norm1 = fingerprint_query("SELECT a FROM t WHERE b > 40")
        fp2, norm2 = fingerprint_query("SELECT a FROM t  WHERE b > 99")
        assert fp1 == fp2
        assert norm1 == norm2

    def test_different_shapes_differ(self):
        fp1, _ = fingerprint_query("SELECT a FROM t WHERE b > 40")
        fp2, _ = fingerprint_query("SELECT a FROM t WHERE c > 40")
        assert fp1 != fp2


class _FakeResult:
    def __init__(self, plan_source="orca", opt_time_seconds=0.01):
        self.plan_source = plan_source
        self.opt_time_seconds = opt_time_seconds


def _record(store, sql, **result):
    """Record one optimization of ``sql`` the way a session keys it."""
    return store.record_optimization(
        fingerprint_query(sql), _FakeResult(**result)
    )


class TestAggregates:
    def test_optimizations_aggregate_under_one_fingerprint(self):
        store = QueryStatsStore()
        _record(store, "SELECT a FROM t WHERE b > 1", opt_time_seconds=0.01)
        _record(
            store, "SELECT a FROM t WHERE b > 2",
            plan_source="cache", opt_time_seconds=0.03,
        )
        assert len(store) == 1
        stats = store.lookup("SELECT a FROM t WHERE b > 3")
        assert stats.calls == 2
        assert stats.plan_sources == {"orca": 1, "cache": 1}
        assert stats.cache_hits == 1
        assert stats.mean_opt_seconds == 0.02
        assert stats.max_opt_seconds == 0.03

    def test_least_called_eviction(self, monkeypatch):
        monkeypatch.setattr(stats_module, "MAX_ENTRIES", 2)
        store = QueryStatsStore()
        for _ in range(3):
            _record(store, "SELECT a FROM t")
        _record(store, "SELECT b FROM t")
        _record(store, "SELECT c FROM t")
        assert len(store) == 2
        assert store.evictions == 1
        assert store.lookup("SELECT b FROM t") is None  # the least called
        assert store.lookup("SELECT a FROM t").calls == 3

    def test_entries_ranked_by_calls(self):
        store = QueryStatsStore()
        _record(store, "SELECT a FROM t")
        for _ in range(2):
            _record(store, "SELECT b FROM t")
        entries = store.entries()
        assert [e.calls for e in entries] == [2, 1]
        assert entries[0].query == "SELECT b FROM t"

    def test_render_table(self):
        store = QueryStatsStore()
        _record(store, "SELECT a FROM t WHERE b > 7")
        text = store.render()
        assert "fingerprint" in text and "calls" in text
        assert "SELECT a FROM t WHERE b > ?" in text
        assert "(1 of 1 queries, 0 evicted)" in text


class TestSessionIntegration:
    def test_session_records_optimizations_and_executions(self, small_db):
        store = QueryStatsStore()
        session = repro.connect(
            small_db, segments=4, enable_plan_cache=True, stats_store=store
        )
        session.optimize("SELECT t1.a FROM t1 WHERE t1.b > 40")
        session.optimize("SELECT t1.a FROM t1 WHERE t1.b > 90")
        execution = session.execute("SELECT t1.a FROM t1 WHERE t1.b > 90")
        stats = store.lookup("SELECT t1.a FROM t1 WHERE t1.b > 0")
        assert stats.calls == 3
        assert stats.cache_hits >= 1
        assert stats.executions == 1
        assert stats.rows_returned == len(execution.rows)
        assert stats.total_exec_work > 0

    def test_sessions_share_one_store(self, small_db):
        store = QueryStatsStore()
        first, second = (
            repro.connect(small_db, segments=4, stats_store=store)
            for _ in range(2)
        )
        first.optimize("SELECT t1.a FROM t1 WHERE t1.b > 40")
        second.optimize("SELECT t2.a FROM t2")
        top = store.entries()
        assert len(top) == 2
        assert all(e.calls == 1 for e in top)

    def test_one_fingerprint_per_execute(self, tpcds_db, monkeypatch):
        """A statement is fingerprinted once per call, however many
        observers key on it: the stats store (optimization, execution and
        q-error records, the slow log's baseline), the slow log and the
        flight record."""
        from repro.service import session as session_module

        calls = []
        real = stats_module.fingerprint_query

        def counting(sql_or_stmt):
            calls.append(sql_or_stmt)
            return real(sql_or_stmt)

        monkeypatch.setattr(stats_module, "fingerprint_query", counting)
        monkeypatch.setattr(session_module, "fingerprint_query", counting)
        session = repro.connect(
            tpcds_db, segments=4, enable_cardinality_feedback=True,
            stats_store=QueryStatsStore(),
            slow_log=SlowQueryLog(threshold_ms=0.0, stream=io.StringIO()),
            flight_recorder=FlightRecorder(),
        )
        for query in QUERIES[:3]:
            calls.clear()
            session.execute(query.sql)
            assert calls == [query.sql], query.id
        assert all(e.executions == 1 for e in session.stats_store.entries())
        assert len(session.stats_store) == 3


class TestStatsCli:
    def test_stats_subcommand(self, capsys, tmp_path):
        prom = tmp_path / "telemetry.prom"
        js = tmp_path / "telemetry.json"
        assert main([
            "stats", "--queries", "3", "--execute",
            "--scale", "0.05", "--segments", "4",
            "--prometheus-out", str(prom), "--json-out", str(js),
        ]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "=== telemetry ===" in out
        assert "repro_queries_total" in prom.read_text(encoding="utf-8")
        assert '"families"' in js.read_text(encoding="utf-8")

    def test_stats_optimize_only(self, capsys):
        assert main(["stats", "--queries", "2",
                     "--scale", "0.05", "--segments", "4"]) == 0
        out = capsys.readouterr().out
        assert "orca" in out
