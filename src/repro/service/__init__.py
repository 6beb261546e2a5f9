"""Resource-governed optimizer sessions (the service layer).

What GPOS (Section 4.2) buys Orca inside a host DBMS — memory quotas,
exception handling, clean aborts — plus what production deployments add
around it: graceful fallback to the legacy Planner, retry of transient
faults, and a deterministic fault-injection harness to prove all of it
under test.

Entry points: :func:`repro.connect` / :class:`Session` for one governed
session (sessions share a :class:`repro.telemetry.MetricsRegistry`, a
:class:`repro.telemetry.QueryStatsStore` or a feedback store by being
passed the same one), and :mod:`repro.service.faults` for the resilience
harness.  Concurrency belongs to the host: :func:`repro.connect_fleet`.
"""

from repro.service.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultSpec,
    FiredFault,
    one_fault_per_site,
)
from repro.service.session import Session, SessionMetrics, connect

__all__ = [
    "Session",
    "SessionMetrics",
    "connect",
    "FaultInjector",
    "FaultSpec",
    "FiredFault",
    "FAULT_SITES",
    "FAULT_KINDS",
    "one_fault_per_site",
]
