"""Smoke test of the performance ledger (``pytest benchmarks/``).

Runs ``run.py --smoke`` — one round of every workload, untraced and
traced, each in its own subprocess — and asserts that every workload
and every metric ``BENCHMARK.json`` names appears in the output, that
the oracle agrees with every timed statement, and that the recorder and
the oracle catch what they exist to catch.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_prints_every_metric_and_workload(tmp_path):
    out = tmp_path / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in SPEC["workloads"]:
        assert f"== {workload['name']} " in done.stdout
    for metric in SPEC["end_to_end"] + SPEC["per_layer"] + [{"name": "fail_share"}]:
        assert f"   {metric['name']} " in done.stdout, metric["name"]
    report = json.loads(out.read_text())
    assert set(report["header"]) >= {"commit", "python", "nproc", "seed"}
    for name, runs in report["workloads"].items():
        assert runs["untraced"]["failed"] == runs["traced"]["failed"] == 0, name
        assert runs["untraced"]["attempted"] >= 32
        # The corpus has exactly one statement sqlite cannot run (ROLLUP).
        assert runs["untraced"]["oracle"]["planner_row"] == 1
        assert set(runs["untraced"]["metrics"]) - {"fail_share"} == {
            m["name"] for m in SPEC["end_to_end"]
        }
        assert set(runs["traced"]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        layer = runs["traced"]["metrics"]
        assert layer["obs.self_time_coverage"] > 0.98
        assert layer["engine.fused_chain_ms"] > 0
    adhoc = report["workloads"]["adhoc_cold"]["traced"]["metrics"]
    assert adhoc["search.self_ms"] > adhoc["gpos.deep_sizeof_ms"] > adhoc["sql.parse_ms"] > 0
    assert adhoc["plancache.lookup_ms"] == 0
    cached = report["workloads"]["repeat_cached"]["traced"]["metrics"]
    assert cached["search.self_ms"] == 0 and cached["plancache.hit_share"] == 1.0
    assert cached["plancache.rebind_share"] > 0
    fleet = report["workloads"]["fleet_mixed"]["traced"]["metrics"]
    assert fleet["fleet.concurrency_gain"] > 0 and fleet["fleet.request_ms"] > 0
    assert fleet["search.self_ms"] > 0, "fleet workers did not report their layers"


def test_trace_out_writes_a_valid_chrome_trace(tmp_path):
    import repro

    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "repeat_cached",
         "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    payload = json.loads(trace.read_text())
    assert repro.validate_chrome_trace(payload) == []
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"statement", "service.execute", "plancache.lookup", "engine.execute"} <= names


def test_layer_recorder_self_test():
    import layers

    layers.self_test()


def test_corrupted_expected_row_counts_as_failure():
    import harness
    import oracle
    import repro
    from repro.workloads import build_populated_db
    from workloads import WORKLOADS

    workload = WORKLOADS["adhoc_cold"]
    db = build_populated_db(scale=0.05)
    reference = oracle.Oracle(db)
    texts = [stmt.texts[0] for stmt in workload.statements[:2]]
    expected = {text: reference.expected(text) for text in texts}
    good = expected[texts[0]]
    assert good.rows, "pick a statement that returns rows"
    corrupted = (good.rows[0][:-1] + (good.rows[0][-1] + 1,),) + good.rows[1:]
    expected[texts[0]] = dataclasses.replace(good, rows=corrupted)
    driver = harness.SessionDriver(workload, db, expected, None)
    for text in texts:
        driver.timed("plain", driver.targets["plain"], "stmt", text)
    driver.close()
    assert [bool(s.failure) for s in driver.samples] == [True, False]
    assert driver.samples[0].failure.startswith("stmt: row ")


def test_order_by_violation_is_a_failure():
    import oracle

    want = oracle.Expected(rows=((1, "a"), (2, "b")), order_positions=(0,), source="sqlite")
    assert oracle.compare([(1, "a"), (2, "b")], want) == ""
    assert "out of order" in oracle.compare([(2, "b"), (1, "a")], want)
    unordered = dataclasses.replace(want, order_positions=())
    assert oracle.compare([(2, "b"), (1, "a")], unordered) == ""
    assert oracle.compare([(1, "a"), (2, "c")], unordered) != ""
    assert oracle.compare([(1.0000000001, "a"), (2, "b")], unordered) == ""


def test_missing_layer_fails_loudly(monkeypatch):
    import layers

    gone = ("x.gone", "repro.optimizer", "gone")
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (gone,))
    recorder = layers.LayerRecorder()
    with pytest.raises(layers.LayerMissing):
        recorder.install()
    assert recorder._originals == [], "a failed install must leave nothing wrapped"
