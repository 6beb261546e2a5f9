"""Chrome-trace / Perfetto JSON export for stitched traces.

The exporter turns a tracer's :class:`~repro.obs.spans.Span` list into
the Trace Event Format consumed by ``chrome://tracing`` and
https://ui.perfetto.dev: one complete event (``ph: "X"``) per span with
microsecond ``ts`` / ``dur``, plus ``M`` metadata events naming each
process row.  Spans adopted from fleet workers carry a ``process`` entry
in their data dict; each distinct process gets its own ``pid`` row so a
fleet query renders as orchestrator and worker timelines stacked in one
view, stitched by the shared ``trace_id`` in every event's ``args``.

:func:`validate_chrome_trace` is the checker CI runs against uploaded
artifacts — it is deliberately strict about the fields the viewers
actually require.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional, Union

from repro.obs.spans import Span

#: Process row used for spans that carry no ``process`` annotation (the
#: local / orchestrator timeline).
DEFAULT_PROCESS = "orchestrator"

#: Fields every complete ("X") trace event must carry to render.
REQUIRED_EVENT_FIELDS = ("name", "ph", "ts", "pid", "tid")


def chrome_trace(
    spans: Iterable[Span],
    *,
    trace_id: Optional[str] = None,
) -> dict[str, Any]:
    """Render spans as a Chrome Trace Event Format payload (a dict)."""
    span_list = list(spans)
    # Stable pid assignment: orchestrator first, then workers in first-
    # appearance order, so repeated exports of one trace line up.
    processes: list[str] = []
    for span in span_list:
        proc = span.data.get("process", DEFAULT_PROCESS)
        if proc not in processes:
            processes.append(proc)
    if DEFAULT_PROCESS in processes:
        processes.remove(DEFAULT_PROCESS)
        processes.insert(0, DEFAULT_PROCESS)
    pids = {proc: i + 1 for i, proc in enumerate(processes)}

    events: list[dict[str, Any]] = []
    for proc in processes:
        events.append({
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": pids[proc],
            "tid": 0,
            "args": {"name": proc},
        })
    for span in span_list:
        proc = span.data.get("process", DEFAULT_PROCESS)
        args: dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
        }
        if trace_id is not None:
            args["trace_id"] = trace_id
        for key, value in span.data.items():
            if key != "process":
                args[key] = value
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": span.duration * 1e6,
            "pid": pids[proc],
            "tid": 1,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def tracer_chrome_trace(tracer: Any) -> dict[str, Any]:
    """Export a tracer's spans, tagging events with its ``trace_id``."""
    return chrome_trace(tracer.spans, trace_id=tracer.trace_id)


def write_chrome_trace(path: str, tracer: Any, indent: Optional[int] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer_chrome_trace(tracer), fh, indent=indent)


def validate_chrome_trace(payload: Union[str, dict]) -> list[str]:
    """Check a Chrome-trace payload; returns problem strings (empty = ok)."""
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["top level is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        for fld in REQUIRED_EVENT_FIELDS:
            if fld not in event:
                problems.append(f"event {i} missing field {fld!r}")
        if event.get("ph") == "X":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event {i} ts is not numeric")
            if not isinstance(event.get("dur"), (int, float)):
                problems.append(f"event {i} missing numeric dur")
            elif event["dur"] < 0:
                problems.append(f"event {i} has negative dur")
    return problems
