"""The instrumentation front: what leaves the program must not change.

Two halves.

**Fixtures** pin every observability output a user or a scraper reads,
once ids, pids and wall-clock values are masked: ``Tracer.to_dict()``,
the Chrome trace of a fleet-stitched query, the Prometheus exposition of
a registry-backed ``Session`` and of a ``Fleet`` after a fixed statement
list, a
flight dump, a slow-log record, and the trace an AMPERe dump embeds.
The snapshots live in ``tests/fixtures/front/``; regenerate them after
an intentional change with ``python -m pytest tests/ -m pins
--update-golden`` and review the diff.

**Identity** runs the corpus once per sink set (none, trace buffer,
flight ring, metrics registry, all three) and requires plans, job logs,
rows and the simulated clock to be equal: observing a query never
changes it.

Everything here goes through the public doors (``connect``,
``connect_fleet``, ``capture_dump``), so the same file
passes before and after the classes behind those doors are merged.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import repro
from repro.obs import (
    FlightRecorder,
    SlowQueryLog,
    load_flight_dump,
    tracer_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry import MetricsRegistry, parse_prometheus
from repro.trace import Tracer
from repro.verify.ampere import AMPEReDump, capture_dump
from repro.workloads import QUERIES

from tests.conftest import make_small_db

FIXTURES = Path(__file__).parent / "fixtures" / "front"
SEGMENTS = 8

#: One corpus statement for the single-query fixtures (a join under an
#: aggregate: every pipeline stage, motions, and a fused chain).
STATEMENT = QUERIES[0].sql

#: Small-database statements for the multi-process fixtures.
Q_POINT = "SELECT a, b FROM t1 WHERE b = 42 ORDER BY a, b LIMIT 10"
Q_JOIN = "SELECT count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.a WHERE t2.b < 100"
Q_SCAN = "SELECT a FROM t2 WHERE b > 7 ORDER BY a"

#: Families whose values are wall-clock or depend on what else the
#: process has allocated so far; their series are pinned, their values
#: are not.
UNPINNED_VALUES = frozenset({
    "repro_search_memory_bytes",
    "repro_optimization_seconds",
    "repro_fleet_request_seconds",
})


def check(name: str, actual, request) -> None:
    """Compare ``actual`` with its committed snapshot (or rewrite it)."""
    path = FIXTURES / f"{name}.json"
    text = json.dumps(actual, indent=1, sort_keys=True) + "\n"
    if request.config.getoption("--update-golden"):
        FIXTURES.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), f"missing fixture {path.name}; run --update-golden"
    assert text == path.read_text(encoding="utf-8"), (
        f"{name} changed; if intentional, regenerate with --update-golden"
    )


def masked_trace(payload: dict) -> dict:
    """A ``Tracer.to_dict()`` payload without ids and times."""
    return {
        "keys": sorted(payload),
        "version": payload["version"],
        "counters": payload["counters"],
        "stages": {k: v["count"] for k, v in payload["stages"].items()},
        "job_kinds": {k: v["count"] for k, v in payload["job_kinds"].items()},
        "stage_keys": sorted({k for v in payload["stages"].values() for k in v}),
        "event_keys": sorted({k for e in payload["events"] for k in e}),
        "span_keys": sorted({k for s in payload["spans"] for k in s}),
        "span_names": [s["name"] for s in payload["spans"]],
    }


def masked_exposition(text: str) -> dict:
    """Family -> type and series of a Prometheus exposition; values are
    kept where they are deterministic counts."""
    types = {
        line.split()[2]: line.split()[3]
        for line in text.splitlines()
        if line.startswith("# TYPE ")
    }
    samples = parse_prometheus(text)
    out = {}
    for family, kind in types.items():
        if kind == "histogram":
            # Bucket bounds and sums are wall-clock; series and counts are not.
            series = [
                [labels, value] for labels, value in samples[f"{family}_count"]
            ]
        else:
            series = [[labels, value] for labels, value in samples[family]]
        if family in UNPINNED_VALUES:
            series = [[labels, None] for labels, _ in series]
        out[family] = {"type": kind, "series": series}
    return out


@pytest.fixture(scope="module")
def small_front_db():
    return make_small_db(t1_rows=2000, t2_rows=300)


# ----------------------------------------------------------------------
# Fixtures: single process
# ----------------------------------------------------------------------
@pytest.mark.pins
def test_tracer_to_dict(tpcds_db, request):
    tracer = Tracer()
    session = repro.connect(tpcds_db, tracer=tracer, segments=SEGMENTS)
    session.execute(STATEMENT)
    check("tracer_to_dict", masked_trace(tracer.to_dict()), request)


@pytest.mark.pins
def test_ampere_dump_embeds_the_trace(tpcds_db, tmp_path, request):
    tracer = Tracer()
    config = repro.OptimizerConfig(segments=SEGMENTS)
    repro.Orca(tpcds_db, config=config, tracer=tracer).optimize(STATEMENT)
    dump = capture_dump(tpcds_db, STATEMENT, config=config, trace=tracer)
    assert dump.trace_json == tracer.to_json()
    dump.save(tmp_path / "dump.dxl")
    restored = AMPEReDump.load(tmp_path / "dump.dxl")
    check(
        "ampere_trace", masked_trace(json.loads(restored.trace_json)), request
    )
    # An untraced capture embeds nothing.
    assert capture_dump(tpcds_db, STATEMENT, config=config).trace_json is None


@pytest.mark.pins
def test_flight_dump(tpcds_db, tmp_path, request):
    recorder = FlightRecorder(dump_dir=str(tmp_path), worker="worker-0")
    session = repro.connect(tpcds_db, flight_recorder=recorder, segments=SEGMENTS)
    session.execute(STATEMENT)
    session.optimize(STATEMENT)
    dump = load_flight_dump(recorder.dump("manual"))
    records = dump["records"]
    check("flight_dump", {
        "keys": sorted(dump),
        "version": dump["version"],
        "reason": dump["reason"],
        "worker": dump["worker"],
        "in_flight": dump["in_flight"],
        "record_keys": sorted({k for r in records for k in r}),
        "span_keys": sorted({k for r in records for s in r["spans"] for k in s}),
        "meta_keys": [sorted(r["meta"]) for r in records],
        "span_names": [[s["name"] for s in r["spans"]] for r in records],
        "events": [r["events"] for r in records],
        "finished": [r["finished"] for r in records],
    }, request)
    # One trace id per record, and every span's parent is in its record.
    for record in records:
        ids = {s["span_id"] for s in record["spans"]}
        assert all(
            s["parent_id"] is None or s["parent_id"] in ids
            for s in record["spans"]
        )
        assert len(record["trace_id"]) == 16


def test_a_statement_front_hit_has_no_parse_span(tpcds_db):
    """A text the plan cache has seen is not parsed, and the trace says
    so by omission: the second record has no ``parse`` span at all (not
    a zero-length one), in the buffer and in the flight ring alike."""
    tracer, recorder = Tracer(), FlightRecorder()
    session = repro.connect(
        tpcds_db, tracer=tracer, flight_recorder=recorder,
        segments=SEGMENTS, enable_plan_cache=True,
    )
    session.optimize(STATEMENT)
    session.optimize(STATEMENT)
    first, second = (
        [span.name for span in record.spans] for record in recorder.records
    )
    assert first[:2] == ["parse", "plan_cache_lookup"]
    assert second == ["plan_cache_lookup"]
    assert tracer.stage_counts["parse"] == 1
    assert tracer.stage_counts["plan_cache_lookup"] == 2
    assert tracer.count("plan_cache_statement_miss") == 1
    assert tracer.count("plan_cache_statement_hit") == 1


@pytest.mark.pins
def test_slow_log_record(tpcds_db, request):
    def record_keys(**doors):
        stream = io.StringIO()
        log = SlowQueryLog(threshold_ms=0.0, stream=stream)
        session = repro.connect(
            tpcds_db, slow_log=log, segments=SEGMENTS, **doors
        )
        session.execute(STATEMENT)
        (payload,) = log.records
        line = json.loads(stream.getvalue())
        assert {k: line[k] for k in payload} == payload
        return {
            "payload": sorted(payload),
            "line": sorted(line),
            "phases": sorted(payload.get("phases_ms", ())),
            "reason": payload["reason"],
            "plan_source": payload["plan_source"],
        }

    check("slow_log_record", {
        "plain": record_keys(),
        "tracer": record_keys(tracer=Tracer()),
        "flight": record_keys(flight_recorder=FlightRecorder()),
    }, request)


@pytest.mark.pins
def test_session_prometheus(tpcds_db, request):
    statements = [q.sql for q in QUERIES[:4]]
    registry = MetricsRegistry()
    with repro.connect(
        tpcds_db, telemetry=registry, segments=SEGMENTS,
        enable_plan_cache=True,
    ) as session:
        for sql in statements + statements[:2]:
            session.execute(sql)
        with pytest.raises(repro.ParseError):
            session.optimize("SELECT FROM")
    check(
        "session_prometheus", masked_exposition(registry.to_prometheus()),
        request,
    )


# ----------------------------------------------------------------------
# Fixtures: a fleet (real worker processes)
# ----------------------------------------------------------------------
@pytest.mark.pins
def test_fleet_chrome_trace(small_front_db, request):
    """What ``repro trace --fleet 2 --execute`` writes."""
    tracer = Tracer()
    with repro.connect_fleet(
        small_front_db, workers=2, tracer=tracer, segments=4, name="trace"
    ) as fleet:
        fleet.execute(Q_JOIN)
    payload = tracer_chrome_trace(tracer)
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    names = {e["args"]["span_id"]: e["name"] for e in events if e["ph"] == "X"}
    check("fleet_chrome_trace", {
        "keys": sorted(payload),
        "displayTimeUnit": payload["displayTimeUnit"],
        "processes": [
            [e["args"]["name"], e["pid"]] for e in events if e["ph"] == "M"
        ],
        "event_keys": sorted({k for e in events for k in e}),
        "spans": [
            {
                "name": e["name"],
                "cat": e["cat"],
                "pid": e["pid"],
                "tid": e["tid"],
                "args": sorted(e["args"]),
                "parent": names.get(e["args"]["parent_id"]),
            }
            for e in events if e["ph"] == "X"
        ],
    }, request)
    assert {
        e["args"]["trace_id"] for e in events if e["ph"] == "X"
    } == {tracer.trace_id}


@pytest.mark.pins
def test_fleet_prometheus(small_front_db, request):
    with repro.connect_fleet(
        small_front_db, workers=2, segments=4, enable_plan_cache=True
    ) as fleet:
        for sql in (Q_POINT, Q_JOIN, Q_SCAN, Q_POINT, Q_JOIN, Q_SCAN):
            fleet.execute(sql)
        fleet.optimize(Q_POINT)
        with pytest.raises(repro.ParseError):
            fleet.optimize("SELECT FROM")
        fleet.kill_worker(1)
        fleet.execute(Q_SCAN)
        fleet.health_check()
        fleet.worker_stats()
        check("fleet_prometheus", masked_exposition(fleet.prometheus()), request)


# ----------------------------------------------------------------------
# Identity: observing a query never changes it
# ----------------------------------------------------------------------
SINK_SETS = {
    "none": lambda: {},
    "buffer": lambda: {"tracer": Tracer()},
    "flight": lambda: {"flight_recorder": FlightRecorder()},
    "registry": lambda: {"telemetry": MetricsRegistry()},
    "all": lambda: {
        "tracer": Tracer(),
        "flight_recorder": FlightRecorder(),
        "telemetry": MetricsRegistry(),
    },
}


def job_shape(job_log) -> list:
    """The job DAG with ids renumbered by first appearance: a traced run
    numbers a job when it is scheduled, an untraced one when it is first
    logged, so the labels differ and the graph does not."""
    ids: dict[int, int] = {}
    return [
        (
            ids.setdefault(r.job_id, len(ids)),
            r.kind,
            tuple(ids.setdefault(d, len(ids)) for d in r.depends_on),
        )
        for r in job_log
    ]


def run_corpus(db, **doors) -> list:
    session = repro.connect(db, segments=SEGMENTS, **doors)
    out = []
    for query in QUERIES:
        execution = session.execute(query.sql)
        result = session.last_result
        out.append((
            query.id,
            result.plan.explain(),
            job_shape(result.search_stats.job_log),
            execution.rows,
            execution.metrics.simulated_seconds(),
        ))
    return out


@pytest.fixture(scope="module")
def unobserved(tpcds_db):
    return run_corpus(tpcds_db)


@pytest.mark.parametrize("sinks", list(SINK_SETS))
def test_every_sink_set_is_an_identity(sinks, tpcds_db, unobserved):
    observed = run_corpus(tpcds_db, **SINK_SETS[sinks]())
    for plain, seen in zip(unobserved, observed):
        assert plain == seen, f"{sinks}: {plain[0]} differs"
