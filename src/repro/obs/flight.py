"""Always-on flight recorder: a bounded ring of recent query records.

AMPERe (PAPER.md §7.1) captures enough optimizer context *at failure
time* to replay the crash elsewhere.  The flight recorder is the
streaming version of that idea for the fleet: every worker keeps a small
ring buffer of the last N queries' spans and structured events, paid for
continuously at near-zero cost, and serializes it to a JSON dump the
moment something goes wrong — a fatal injected fault, a wedge, a ``die``
request, a governor trip, or an unexpected worker exception.  Chaos runs
then produce postmortem artifacts instead of silence.

The ring is a sink of the instrumentation front
(:class:`repro.trace.Tracer`; :attr:`FlightRecorder.tracer` writes this
ring and nothing else).  A front without a trace buffer reports
``enabled = False``, so every *guarded* hot-path call site skips payload
construction exactly as if tracing were off, and recorded and unrecorded
runs stay bit-identical.  Only the dozen-or-so ``span`` sites per query
do real work: one :class:`~repro.obs.spans.Span` each, appended to the
current :class:`QueryRecord`.  Span times are relative to the record's
begin, so a dump's spans can be rebased onto any other timeline (the
orchestrator does this when stitching worker spans into a fleet trace).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.spans import Span, new_trace_id

#: Structured events kept per record before the ring starts dropping
#: them (spans are unbounded per record — there are ~10 per query).
MAX_EVENTS_PER_RECORD = 64

#: Default ring capacity (completed query records kept per worker).
DEFAULT_CAPACITY = 64


@dataclass
class QueryRecord:
    """One query's flight data: identity, spans, structured events."""

    name: str
    trace_id: str
    started: float  # monotonic; local duration math only, never shipped
    meta: dict[str, Any] = field(default_factory=dict)
    parent_span_id: Optional[str] = None
    spans: list[Span] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    finished: bool = False
    duration: float = 0.0

    def note(self, kind: str, t: float, data: dict[str, Any]) -> None:
        if len(self.events) < MAX_EVENTS_PER_RECORD:
            self.events.append({"kind": kind, "t": t, "data": data})

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "parent_span_id": self.parent_span_id,
            "meta": self.meta,
            "finished": self.finished,
            "duration": self.duration,
            "spans": [s.to_dict() for s in self.spans],
            "events": self.events,
        }


class FlightRecorder:
    """Bounded ring of :class:`QueryRecord` plus crash-dump machinery."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        dump_dir: Optional[str] = None,
        worker: Optional[str] = None,
    ):
        self.capacity = capacity
        self.dump_dir = dump_dir
        self.worker = worker
        self.records: deque[QueryRecord] = deque(maxlen=capacity)
        self.current: Optional[QueryRecord] = None
        self.dumps: list[str] = []
        self._dump_seq = 0
        from repro.trace import Tracer  # at module level: a cycle via spans

        #: The instrumentation front that writes this ring and nothing else.
        self.tracer = Tracer.front(flight=self)

    # -- record lifecycle ----------------------------------------------
    def begin(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        **meta: Any,
    ) -> QueryRecord:
        if self.current is not None:  # defensive: never lose a record
            self.end()
        self.current = QueryRecord(
            name=name,
            trace_id=trace_id or new_trace_id(),
            started=time.monotonic(),
            parent_span_id=parent_span_id,
            meta=meta,
        )
        return self.current

    def end(self) -> Optional[QueryRecord]:
        rec = self.current
        if rec is None:
            return None
        rec.finished = True
        rec.duration = time.monotonic() - rec.started
        self.records.append(rec)
        self.current = None
        return rec

    # -- dumps ---------------------------------------------------------
    def to_dict(self, reason: str = "manual") -> dict[str, Any]:
        in_flight = self.current
        if in_flight is not None:
            in_flight.duration = time.monotonic() - in_flight.started
        return {
            "version": 1,
            "reason": reason,
            "worker": self.worker,
            "pid": os.getpid(),
            "in_flight": in_flight.to_dict() if in_flight else None,
            "records": [r.to_dict() for r in self.records],
        }

    def dump(self, reason: str) -> Optional[str]:
        """Write the ring (plus any in-flight record) as one JSON file.

        No-op (returns None) when no ``dump_dir`` is configured — the
        ring still exists in memory for in-process inspection.
        """
        if self.dump_dir is None:
            return None
        os.makedirs(self.dump_dir, exist_ok=True)
        self._dump_seq += 1
        safe_reason = "".join(
            ch if ch.isalnum() or ch in "-_" else "_" for ch in reason
        )
        name = (
            f"flight-{self.worker or 'local'}-pid{os.getpid()}"
            f"-{self._dump_seq:03d}-{safe_reason}.json"
        )
        path = os.path.join(self.dump_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(reason), fh, indent=2)
        self.dumps.append(path)
        return path


def load_flight_dump(path: str) -> dict[str, Any]:
    """Read a flight-recorder dump back (tests / CLI forensics)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
