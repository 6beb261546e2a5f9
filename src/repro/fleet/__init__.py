"""repro.fleet — a multi-process optimizer fleet behind one endpoint.

The Orca paper's optimizer runs its search multi-core (GPOS §4.2: a
pool of self-scheduling workers over a shared job queue).  A pure-Python
reproduction cannot get that parallelism from threads, so the fleet
applies the same architecture one level up: a pool of worker
*processes*, each running a full governed :class:`repro.service.Session`,
behind a single session-compatible endpoint.

Layout:

- :mod:`repro.fleet.orchestrator` — :class:`Fleet` (routing, health
  checks, restarts, telemetry) and :func:`connect`.
- :mod:`repro.fleet.worker` — the worker process entry point and its
  request protocol.
- :mod:`repro.fleet.routing` — routing policies (round-robin,
  fingerprint-affinity).
- :mod:`repro.fleet.shared` — cross-process plan cache and cardinality
  feedback, manager-backed.
"""

from repro.fleet.orchestrator import Fleet, FleetResult, connect
from repro.fleet.routing import (
    POLICIES,
    AffinityPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    WorkerView,
    make_policy,
)
from repro.fleet.shared import (
    SharedFeedbackBoard,
    SharedFeedbackStore,
    SharedPlanStore,
)
from repro.fleet.worker import WorkerSpec

__all__ = [
    "Fleet",
    "FleetResult",
    "connect",
    "WorkerSpec",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "AffinityPolicy",
    "WorkerView",
    "POLICIES",
    "make_policy",
    "SharedPlanStore",
    "SharedFeedbackBoard",
    "SharedFeedbackStore",
]
