"""Structured optimizer tracing: typed events, spans, counters, dumps.

The paper's evaluation is entirely about *measuring* the optimizer —
plan quality, optimization time, memory, scheduler scalability (Figures
11-15) — so every layer of this reproduction emits structured trace
events through a :class:`Tracer`:

- pipeline spans (``stage_start`` / ``stage_end``) with wall-time
  aggregation: parse, translate, normalize, copy_in, search stages,
  extract, execute;
- optimizer internals: ``group_created``, ``gexpr_added``,
  ``xform_applied``, ``property_request``, ``cost_computed``,
  ``motion_enforced``, ``rules_selected``;
- scheduler activity: ``job_scheduled`` / ``job_done`` (with per-job-kind
  time aggregation);
- execution: ``operator_executed`` per plan node plus a final
  ``execution_metrics`` snapshot of the simulated clock.

The default is a :class:`NullTracer` singleton (:data:`NULL_TRACER`)
whose methods are no-ops; hot call sites additionally guard on
``tracer.enabled`` so the untraced path stays within noise of the
pre-tracing code.  A populated :class:`Tracer` renders a human-readable
:meth:`~Tracer.summary` table (the CLI's ``--trace``) and serializes to
JSON via :meth:`~Tracer.to_json` for replay / embedding in AMPERe dumps.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.obs.spans import Span, new_span_id, new_trace_id

#: Event kinds emitted by the instrumented pipeline.  ``record`` accepts
#: any kind string, but these are the ones the built-in instrumentation
#: produces (and the ones trace-invariant tests reason about).
EVENT_KINDS = frozenset({
    "stage_start",
    "stage_end",
    "rules_selected",
    "xform_applied",
    "group_created",
    "gexpr_added",
    "job_scheduled",
    "job_done",
    "property_request",
    "cost_computed",
    "motion_enforced",
    "operator_executed",
    "execution_metrics",
    # Branch-and-bound search pruning (Section 4.1, Fig. 5): an
    # alternative abandoned before full costing, and a bounded (group,
    # req) search re-run because a later requester needed a looser bound.
    "search_pruned",
    "bound_redo",
    # Parameterized plan cache: lookup outcomes, stores and evictions.
    "plan_cache_hit",
    "plan_cache_miss",
    "plan_cache_store",
    "plan_cache_evict",
    # Governed sessions (repro.service): a deadline absorbed with a
    # best-so-far plan, a retried transient fault, a Planner fallback,
    # and a deterministically injected fault.
    "governor_timeout",
    "retry",
    "fallback",
    "fault_injected",
    # Fused pipeline compiler (repro.engine.fused): plan segmentation
    # into fusable chains, per-chain code generation, and the fused
    # engine's cluster-level scan-cache outcomes.
    "pipeline_segmented",
    "chain_compiled",
    "scan_cache_hit",
    "scan_cache_miss",
    # Fleet orchestration (repro.fleet): a worker restart observed while
    # a traced query stream was in flight.
    "fleet_restart",
})


@dataclass
class TraceEvent:
    """One typed trace event: a kind, a timestamp offset and a payload."""

    kind: str
    t: float  # seconds since the tracer was created
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "t": self.t, "data": self.data}


class NullTracer:
    """The zero-overhead default: every operation is a no-op.

    ``enabled`` is False so hot paths can skip building event payloads
    entirely (``if tracer.enabled: tracer.record(...)``).
    """

    enabled = False
    trace_id: Optional[str] = None
    spans: tuple = ()

    __slots__ = ()

    def record(self, kind: str, **data: Any) -> None:
        pass

    @contextmanager
    def span(self, stage: str, **data: Any) -> Iterator[None]:
        yield

    @property
    def current_span_id(self) -> Optional[str]:
        return None

    def now(self) -> float:
        return 0.0

    def count(self, kind: str) -> int:
        return 0

    def events_of(self, kind: str) -> list[TraceEvent]:
        return []

    def to_dict(self) -> dict[str, Any]:
        return {}

    def to_json(self, indent: Optional[int] = None) -> str:
        return "{}"

    def summary(self) -> str:
        return "(tracing disabled)"


#: Shared NullTracer instance; safe because it holds no state.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects typed events and aggregates per-stage / per-kind metrics.

    ``capture_events=False`` keeps only the aggregates (counters, stage
    times, job-kind times) — useful when tracing very large optimization
    sessions where the raw event list would dominate memory.

    Every tracer owns a ``trace_id``, and every :meth:`span` is promoted
    to a :class:`repro.obs.spans.Span` with a ``span_id`` / ``parent_id``
    chain (the current span stack provides the parent), so one query's
    spans — including spans adopted from fleet worker processes via
    :meth:`adopt_spans` — form a single stitched trace exportable as
    Chrome-trace JSON (:mod:`repro.obs.export`).

    Timestamps are ``time.monotonic()`` *deltas* from the tracer's
    creation: immune to wall-clock adjustment (NTP steps can never
    produce negative span durations) and meaningful to ship across
    processes as offsets.

    One tracer may be shared by threads (a traced fleet serves client
    threads at the same time): the open-span stack is per thread, so a
    span's parent is always a span of its own thread, and the aggregates
    are updated under a lock, so their counts are exact.
    """

    enabled = True

    def __init__(
        self,
        capture_events: bool = True,
        *,
        trace_id: Optional[str] = None,
    ):
        self.capture_events = capture_events
        self.trace_id = trace_id or new_trace_id()
        self.events: list[TraceEvent] = []
        #: Completed spans, in completion order (children before parents).
        self.spans: list[Span] = []
        #: ``.stack`` is the calling thread's open spans, innermost last.
        self._local = threading.local()
        #: Guards the aggregates and lists below (read-modify-writes).
        self._lock = threading.Lock()
        #: event kind -> number of times recorded.
        self.counters: dict[str, int] = {}
        #: stage name -> (completed span count, total seconds).
        self.stage_counts: dict[str, int] = {}
        self.stage_times: dict[str, float] = {}
        #: scheduler job kind -> (completed jobs, total step seconds).
        self.job_kind_counts: dict[str, int] = {}
        self.job_kind_times: dict[str, float] = {}
        self._t0 = time.monotonic()

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's timeline origin (monotonic)."""
        return time.monotonic() - self._t0

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @property
    def current_span_id(self) -> Optional[str]:
        """The innermost span this thread has open (trace-context
        propagation)."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    # ------------------------------------------------------------------
    def record(self, kind: str, **data: Any) -> None:
        """Record one event; aggregates are always updated, the raw event
        only when ``capture_events`` is set."""
        with self._lock:
            self.counters[kind] = self.counters.get(kind, 0) + 1
            if kind == "job_done":
                jkind = data.get("job_kind", "?")
                self.job_kind_counts[jkind] = (
                    self.job_kind_counts.get(jkind, 0) + 1
                )
                self.job_kind_times[jkind] = (
                    self.job_kind_times.get(jkind, 0.0)
                    + data.get("seconds", 0.0)
                )
            if self.capture_events:
                self.events.append(
                    TraceEvent(kind, time.monotonic() - self._t0, data)
                )

    @contextmanager
    def span(self, stage: str, **data: Any) -> Iterator[Span]:
        """Time a pipeline stage, emitting ``stage_start`` / ``stage_end``
        and recording a :class:`Span` under this thread's span stack."""
        stack = self._stack()
        span = Span(
            name=stage,
            span_id=new_span_id(),
            parent_id=stack[-1].span_id if stack else None,
            start=time.monotonic() - self._t0,
            data=data,
        )
        stack.append(span)
        self.record(
            "stage_start", stage=stage,
            span_id=span.span_id, parent_id=span.parent_id,
        )
        start = time.monotonic()
        try:
            yield span
        finally:
            elapsed = time.monotonic() - start
            stack.pop()
            span.end = span.start + elapsed
            with self._lock:
                self.spans.append(span)
                self.stage_counts[stage] = self.stage_counts.get(stage, 0) + 1
                self.stage_times[stage] = (
                    self.stage_times.get(stage, 0.0) + elapsed
                )
            self.record(
                "stage_end", stage=stage, seconds=elapsed,
                span_id=span.span_id,
            )

    def adopt_spans(
        self,
        span_dicts: Iterable[dict],
        *,
        base: float,
        process: Optional[str] = None,
        parent_id: Optional[str] = None,
    ) -> list[Span]:
        """Fold spans from another process into this tracer's timeline.

        ``span_dicts`` carry times relative to their own origin (a fleet
        worker's request begin); ``base`` is where that origin sits on
        *this* tracer's timeline (typically :meth:`now` captured when the
        request was sent).  Spans without a parent are attached under
        ``parent_id`` so the remote tree hangs off the local request
        span — the caller's own, which it names explicitly: with several
        threads sending, "the span open right now" is not one span.
        Returns the adopted spans.
        """
        adopted = []
        for payload in span_dicts:
            span = Span.from_dict(payload).shifted(base)
            if span.parent_id is None:
                span.parent_id = parent_id
            if process is not None:
                span.data.setdefault("process", process)
            adopted.append(span)
        with self._lock:
            self.spans.extend(adopted)
        return adopted

    # ------------------------------------------------------------------
    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    def events_of(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "trace_id": self.trace_id,
            "counters": dict(self.counters),
            "stages": {
                name: {
                    "count": self.stage_counts[name],
                    "seconds": self.stage_times[name],
                }
                for name in self.stage_counts
            },
            "job_kinds": {
                kind: {
                    "count": self.job_kind_counts[kind],
                    "seconds": self.job_kind_times.get(kind, 0.0),
                }
                for kind in self.job_kind_counts
            },
            "events": [e.to_dict() for e in self.events],
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Tracer":
        """Rebuild a tracer (aggregates + events) from a JSON dump."""
        payload = json.loads(text)
        tracer = cls(trace_id=payload.get("trace_id"))
        tracer.counters = dict(payload.get("counters", {}))
        for name, agg in payload.get("stages", {}).items():
            tracer.stage_counts[name] = agg["count"]
            tracer.stage_times[name] = agg["seconds"]
        for kind, agg in payload.get("job_kinds", {}).items():
            tracer.job_kind_counts[kind] = agg["count"]
            tracer.job_kind_times[kind] = agg["seconds"]
        tracer.events = [
            TraceEvent(e["kind"], e["t"], e.get("data", {}))
            for e in payload.get("events", [])
        ]
        tracer.spans = [Span.from_dict(s) for s in payload.get("spans", [])]
        return tracer

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable per-stage / per-kind table (CLI ``--trace``)."""
        lines = ["=== optimizer trace ==="]
        if self.stage_counts:
            lines.append(f"{'stage':24s} {'count':>7s} {'time(s)':>10s}")
            for name in self.stage_counts:
                lines.append(
                    f"{name:24s} {self.stage_counts[name]:7d} "
                    f"{self.stage_times[name]:10.4f}"
                )
        if self.job_kind_counts:
            lines.append("")
            lines.append(f"{'job kind':24s} {'jobs':>7s} {'time(s)':>10s}")
            for kind in sorted(
                self.job_kind_counts, key=lambda k: -self.job_kind_counts[k]
            ):
                lines.append(
                    f"{kind:24s} {self.job_kind_counts[kind]:7d} "
                    f"{self.job_kind_times.get(kind, 0.0):10.4f}"
                )
        counter_only = {
            k: v for k, v in self.counters.items()
            if k not in ("stage_start", "stage_end", "job_done")
        }
        if counter_only:
            lines.append("")
            lines.append(f"{'event':24s} {'count':>7s}")
            for kind in sorted(counter_only, key=lambda k: -counter_only[k]):
                lines.append(f"{kind:24s} {counter_only[kind]:7d}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Tracer({sum(self.counters.values())} events, "
            f"{len(self.stage_counts)} stages)"
        )


def check_span_consistency(tracer: Tracer) -> list[str]:
    """Verify every ``stage_start`` has a matching ``stage_end``.

    Returns a list of problem descriptions (empty when consistent).
    Spans may nest; per stage name, starts and ends must balance and
    never go negative.
    """
    problems: list[str] = []
    depth: dict[str, int] = {}
    for event in tracer.events:
        if event.kind == "stage_start":
            stage = event.data.get("stage", "?")
            depth[stage] = depth.get(stage, 0) + 1
        elif event.kind == "stage_end":
            stage = event.data.get("stage", "?")
            depth[stage] = depth.get(stage, 0) - 1
            if depth[stage] < 0:
                problems.append(f"stage_end without stage_start: {stage}")
    for stage, d in depth.items():
        if d > 0:
            problems.append(f"unclosed stage_start: {stage}")
    return problems
