"""Test-side helpers over the program's objects.

The program itself never calls these: each is a probe or a fixture
move that only the tests need, kept here rather than on the objects.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro import interning
from repro.catalog import Database
from repro.fleet.orchestrator import _PROCESS_FAULT_KINDS, Fleet
from repro.gpos.process import NoReply
from repro.props.required import RequiredProps
from repro.props.distribution import AnyDist
from repro.search.plan import PlanNode
from repro.trace import TraceEvent, Tracer


def drop_table(db: Database, name: str) -> None:
    """Remove a table; like any catalog change it moves ``db.changes``."""
    del db._tables[name]
    db.changes += 1


def truncate(db: Database, name: str) -> None:
    """Delete every row of a table; a row change like ``insert``."""
    stored = db._stored(name)
    stored.partitions = [[] for _ in range(stored.table.num_partitions())]
    stored.stats = None
    db._bump(stored, rows_changed=True)


def plan_operators(plan: PlanNode) -> list[str]:
    """The operator names of a plan tree, preorder."""
    return [node.op.name for node in plan.walk()]


def clear_intern_table() -> None:
    """Drop every interned key and reset the process-wide counters."""
    interning._table.clear()
    interning._hits = 0
    interning._misses = 0


def strictness(req: RequiredProps) -> int:
    """Well-founded rank of a request: an enforcer must pass its child a
    request of strictly lower rank, so enforcer recursion terminates."""
    return int(not isinstance(req.dist, AnyDist)) + int(not req.order.is_empty())


def events_of(tracer: Tracer, kind: str) -> list[TraceEvent]:
    return [e for e in tracer.events if e.kind == kind]


def current_span_id(tracer: Tracer) -> Optional[str]:
    """The innermost span this thread has open, else the span the open
    flight record hangs under (trace-context propagation)."""
    stack = tracer._stack()
    if stack:
        return stack[-1].span_id
    rec = tracer._flight_record()
    return rec.parent_span_id if rec is not None else None


def check_span_consistency(tracer: Tracer) -> list[str]:
    """Problems with the buffer's ``stage_start`` / ``stage_end`` pairs
    (empty when consistent).  Spans may nest; per stage name, starts and
    ends must balance and never go negative."""
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


class FaultedFleet(Fleet):
    """A fleet whose worker ``w`` also arms ``worker_faults[w]``, so a
    test can fault one worker and watch the others.  Like the fleet's
    own specs, kill and wedge faults are not re-armed on a restart."""

    def __init__(self, catalog, *, worker_faults: dict, **options):
        self.worker_faults = worker_faults
        super().__init__(catalog, **options)

    def _spec_for(self, worker):
        spec = super()._spec_for(worker)
        extra = tuple(self.worker_faults.get(worker.worker_id, ()))
        if worker.incarnation > 0:
            extra = tuple(
                s for s in extra if s.kind not in _PROCESS_FAULT_KINDS
            )
        return replace(spec, fault_specs=spec.fault_specs + extra)


def wedge_worker(fleet, worker_id: int, seconds: float = 3600.0) -> None:
    """Wedge one fleet worker (it blocks inside its request loop); the
    next probe or routed request times out and triggers the restart."""
    worker = fleet._worker(worker_id)
    with worker.lock:
        try:
            worker.child.request({"kind": "wedge", "seconds": seconds})
        except NoReply:
            fleet._restart(worker, "died")

