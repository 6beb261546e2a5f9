"""The instrumentation front: typed events, spans, counters, dumps.

The paper's evaluation is entirely about *measuring* the optimizer
(Figures 11-15), so every layer emits through a :class:`Tracer`, the one
object instrumented code holds: timed ``span``s around pipeline stages,
typed ``record`` events (:data:`EVENT_KINDS`) and metric increments.  It
fans them out to at most three sinks:

- the **trace buffer** (events, spans, per-stage and per-job-kind
  aggregates), which is what ``Tracer()`` has; it renders the CLI's
  ``--trace`` table and serializes to JSON for AMPERe dumps;
- a **flight ring** (:class:`repro.obs.flight.FlightRecorder`): recent
  queries' spans and :data:`FLIGHT_EVENT_KINDS`;
- a **metrics registry** (:class:`repro.telemetry.MetricsRegistry`): the
  events :mod:`repro.telemetry.families` maps to a family, plus
  ``inc`` / ``observe`` / ``set_gauge``.

The public doors (``connect``, ``Orca``, ``Fleet``, ...) assemble one
with :meth:`Tracer.front` from the ``tracer=`` / ``telemetry=`` /
``flight_recorder=`` they were given; with none it is
:data:`NULL_TRACER`.  ``enabled`` says whether the buffer is there: the
search, memo and executor loops guard their per-event payloads on it, so
a run without a buffer never builds them and stays bit-identical to (and
within noise of) an uninstrumented one.
"""

from __future__ import annotations

import copy
import json
import threading
import time
from contextlib import contextmanager, nullcontext
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
    # alternative abandoned before full costing because it cannot beat
    # the (group, req) context's incumbent.
    "search_pruned",
    # Parameterized plan cache: whether the statement text had been seen
    # (its front), lookup outcomes, stores and evictions.
    "plan_cache_statement_hit",
    "plan_cache_statement_miss",
    "plan_cache_hit",
    "plan_cache_miss",
    "plan_cache_store",
    "plan_cache_evict",
    "plan_cache_shared_hit",
    # Governed sessions (repro.service): a deadline absorbed with a
    # best-so-far plan, a Planner fallback, and a deterministically
    # injected fault.
    "governor_timeout",
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

#: The events a flight ring keeps beside its spans: rare, deliberate
#: ones worth having in a black box.
FLIGHT_EVENT_KINDS = frozenset({"fault_injected"})

#: What ``span()`` hands out when no sink wants spans.
_NO_SPAN = nullcontext()


@dataclass
class TraceEvent:
    """One typed trace event: a kind, a timestamp offset and a payload."""

    kind: str
    t: float  # seconds since the tracer was created
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "t": self.t, "data": self.data}


def _add(counts: dict, times: dict, key: str, seconds: float) -> None:
    counts[key] = counts.get(key, 0) + 1
    times[key] = times.get(key, 0.0) + seconds


def _aggregates(counts: dict, times: dict) -> dict[str, dict]:
    return {
        key: {"count": counts[key], "seconds": times.get(key, 0.0)}
        for key in counts
    }


class Tracer:
    """A trace buffer, and up to two more sinks (see :meth:`front`).

    ``capture_events=False`` keeps only the aggregates (counters, stage
    times, job-kind times) — useful when tracing very large optimization
    sessions where the raw event list would dominate memory.

    A buffered tracer owns a ``trace_id``, and every :meth:`span` is a
    :class:`repro.obs.spans.Span` with a ``span_id`` / ``parent_id``
    chain, so one query's spans — including spans adopted from fleet
    worker processes via :meth:`adopt_spans` — form a single stitched
    trace exportable as Chrome-trace JSON (:mod:`repro.obs.export`).

    Timestamps are ``time.monotonic()`` *deltas* from the tracer's
    creation (from the open flight record's begin when there is no
    buffer): immune to wall-clock adjustment and meaningful to ship
    across processes as offsets.

    One tracer may be shared by threads: the open-span stack is per
    thread, so a span's parent is always a span of its own thread, and
    the aggregates are updated under a lock, so their counts are exact.
    """

    def __init__(
        self,
        capture_events: bool = True,
        *,
        trace_id: Optional[str] = None,
    ):
        #: Whether the trace buffer is there
        #: (``if tracer.enabled: tracer.record(...)`` at hot call sites).
        self.enabled = True
        #: The FlightRecorder and the MetricsRegistry this front also writes.
        self.flight = None
        self.registry = None
        self.capture_events = capture_events
        self._trace_id = trace_id or new_trace_id()
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

    @classmethod
    def front(
        cls, tracer: Optional["Tracer"] = None, *, flight=None, registry=None
    ) -> "Tracer":
        """``tracer`` (default: :data:`NULL_TRACER`) writing ``flight`` and
        ``registry`` as well; ``tracer`` itself when it already does.
        Otherwise a copy that shares its buffer, lock and per-thread span
        stacks: what either emits shows in both, and a span opened on
        one parents the next span opened on the other."""
        base = tracer or NULL_TRACER
        flight, registry = flight or base.flight, registry or base.registry
        if flight is base.flight and registry is base.registry:
            return base
        front = copy.copy(base)
        front.flight, front.registry = flight, registry
        return front

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

    def _flight_record(self):
        """The flight ring's open record, or None."""
        return self.flight.current if self.flight is not None else None

    @property
    def trace_id(self) -> Optional[str]:
        """The buffer's; without a buffer, the open flight record's."""
        if self.enabled:
            return self._trace_id
        rec = self._flight_record()
        return rec.trace_id if rec is not None else None

    # ------------------------------------------------------------------
    def record(self, kind: str, **data: Any) -> None:
        """Record one event: the buffer updates its aggregates (and keeps
        the raw event under ``capture_events``), the ring keeps
        :data:`FLIGHT_EVENT_KINDS`, the registry counts what it maps."""
        if self.enabled:
            with self._lock:
                self.counters[kind] = self.counters.get(kind, 0) + 1
                if kind == "job_done":
                    _add(
                        self.job_kind_counts, self.job_kind_times,
                        data.get("job_kind", "?"), data.get("seconds", 0.0),
                    )
                if self.capture_events:
                    self.events.append(
                        TraceEvent(kind, time.monotonic() - self._t0, data)
                    )
        if self.flight is not None and kind in FLIGHT_EVENT_KINDS:
            rec = self.flight.current
            if rec is not None:
                rec.note(kind, time.monotonic() - rec.started, data)
        if self.registry is not None:
            self.registry.count_event(kind, data)

    def span(self, stage: str, **data: Any):
        """Time a pipeline stage: a context manager yielding the
        :class:`Span`, parented under this thread's span stack.  The
        buffer also gets ``stage_start`` / ``stage_end``; the ring gets
        the span when a record is open.  With neither, one shared no-op."""
        rec = self._flight_record()
        if rec is None and not self.enabled:
            return _NO_SPAN
        return self._span(stage, data, rec)

    @contextmanager
    def _span(self, stage: str, data: dict[str, Any], rec) -> Iterator[Span]:
        buffered = self.enabled
        origin = self._t0 if buffered else rec.started
        stack = self._stack()
        if stack:
            parent_id = stack[-1].span_id
        else:
            parent_id = rec.parent_span_id if rec is not None else None
        span = Span(stage, new_span_id(), parent_id, data=data)
        if buffered:
            self.record(
                "stage_start", stage=stage,
                span_id=span.span_id, parent_id=parent_id,
            )
        stack.append(span)
        start = time.monotonic()
        span.start = start - origin
        try:
            yield span
        finally:
            end = time.monotonic()
            stack.pop()
            span.end = end - origin
            if buffered:
                elapsed = end - start
                with self._lock:
                    self.spans.append(span)
                    _add(self.stage_counts, self.stage_times, stage, elapsed)
                self.record(
                    "stage_end", stage=stage, seconds=elapsed,
                    span_id=span.span_id,
                )
            if rec is not None:
                # The span stays with the record it started under (a later
                # begin() may have closed it), on that record's timeline.
                rec.spans.append(
                    span.shifted(self._t0 - rec.started) if buffered else span
                )

    # -- metric verbs: the registry's, no-ops without one ---------------
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if self.registry is not None:
            self.registry.inc(name, amount, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.registry is not None:
            self.registry.observe(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.registry is not None:
            self.registry.set_gauge(name, value, **labels)

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

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "version": 1,
            "trace_id": self.trace_id,
            "counters": dict(self.counters),
            "stages": _aggregates(self.stage_counts, self.stage_times),
            "job_kinds": _aggregates(
                self.job_kind_counts, self.job_kind_times
            ),
            "events": [e.to_dict() for e in self.events],
            "spans": [s.to_dict() for s in self.spans],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

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


#: The front with no sinks, shared by everything uninstrumented: its
#: ``span()`` hands out one no-op context manager, ``record()`` and the
#: metric verbs return at once, and its buffer stays empty.
NULL_TRACER = Tracer()
NULL_TRACER.enabled = False

