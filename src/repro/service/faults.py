"""Deterministic fault injection at named optimizer sites.

The portability layer of the paper (Section 4.2) exists so the optimizer
can survive exceptions raised anywhere inside a host DBMS.  To *prove*
that property, this module plants trapdoors at the four places where real
optimizer sessions die in production — rule application, statistics
derivation, costing, and plan extraction — and trips them on a
deterministic, seeded schedule.  The resilience suite drives the full
(site x workload-query) matrix through a governed session and asserts
that every query still yields an executable plan.

Two scheduling modes, combinable:

- **explicit specs**: :class:`FaultSpec` fires at the Nth hit of a site
  (1-based), for ``times`` consecutive hits (``times=0`` = every hit from
  ``at`` onward, i.e. a permanent fault);
- **seeded random**: with ``seed``/``rate`` set, each hit of each site
  fires an error with probability ``rate``, decided by a CRC32 of
  ``(seed, site, hit)`` — stable across processes and Python versions
  (unlike ``hash``), which is what makes injected runs replayable.

Fault kinds: ``error`` raises :class:`repro.errors.InjectedFault`;
``delay`` sleeps ``delay_seconds`` (to trip wall-clock deadlines);
``alloc`` charges ``alloc_bytes`` to the session's resource governor (to
trip memory quotas — an allocation spike without actually allocating).

Two further kinds exist for the multi-process fleet
(:mod:`repro.fleet`), where the blast radius is a whole worker process
rather than one query: ``kill`` hard-exits the process mid-optimization
(``os._exit``, no cleanup — a segfaulting worker), and ``wedge`` blocks
inside the fault site for ``delay_seconds`` (default: effectively
forever — a deadlocked worker).  The orchestrator must detect both via
heartbeats / request timeouts and restart the worker; neither kind is
meaningful in a single-process session (``kill`` would take the test
runner down with it).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import InjectedFault
from repro.trace import NULL_TRACER

#: The instrumented sites, in pipeline order.
FAULT_SITES = ("xform_apply", "stats_derive", "costing", "extraction")

#: Fault kinds a spec may request.  ``kill`` and ``wedge`` are
#: process-level (fleet chaos); the rest are per-query.
FAULT_KINDS = ("error", "delay", "alloc", "kill", "wedge")

#: Exit status a ``kill`` fault dies with (distinct from any Python
#: traceback exit, so the orchestrator's restart accounting can assert
#: the death was the injected one).
KILLED_EXIT_CODE = 86

#: How long a ``wedge`` fault blocks when the spec does not say
#: (practically forever next to any request timeout).
WEDGE_SECONDS = 3600.0


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, what, and on which hits it fires."""

    site: str
    kind: str = "error"
    #: Fire starting at the Nth hit of ``site`` (1-based).
    at: int = 1
    #: Number of consecutive hits that fire; 0 means every hit from
    #: ``at`` onward (a permanent fault).
    times: int = 1
    delay_seconds: float = 0.0
    alloc_bytes: int = 64 << 20

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{FAULT_SITES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )

    def fires_at(self, hit: int) -> bool:
        if hit < self.at:
            return False
        return self.times == 0 or hit < self.at + self.times


@dataclass
class FiredFault:
    """One fault that actually fired (the injector's replayable record)."""

    site: str
    hit: int
    kind: str
    context: dict[str, Any] = field(default_factory=dict)


class FaultInjector:
    """Trips planned faults as instrumented sites report their hits.

    Hit counters persist across queries by design: a ``times=1`` spec
    fires on exactly one hit of the whole session, so the next query
    sails past it.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec] = (),
        *,
        seed: Optional[int] = None,
        rate: float = 0.0,
        tracer=None,
    ):
        self.specs = tuple(specs)
        self.seed = seed
        self.rate = rate
        #: Where fired faults are recorded.  Its flight ring, if any, is
        #: dumped before a fatal ``kill``/``wedge`` fires — the process is
        #: about to die with no cleanup (SIGKILL-style), so the black box
        #: must hit disk *here*.
        self.tracer = tracer or NULL_TRACER
        #: Resource governor charged by ``alloc`` faults (set by the
        #: session / engine when the query is armed).
        self.governor = None
        self.hits: dict[str, int] = {site: 0 for site in FAULT_SITES}
        self.fired: list[FiredFault] = []

    # ------------------------------------------------------------------
    def _random_fires(self, site: str, hit: int) -> bool:
        if self.seed is None or self.rate <= 0.0:
            return False
        token = f"{self.seed}:{site}:{hit}".encode()
        draw = zlib.crc32(token) / 0xFFFFFFFF
        return draw < self.rate

    def fire(self, site: str, **context: Any) -> None:
        """Report one hit of ``site``; trips whatever the schedule plans."""
        self.hits[site] = hit = self.hits.get(site, 0) + 1
        spec = next(
            (s for s in self.specs if s.site == site and s.fires_at(hit)),
            None,
        )
        if spec is None:
            if self._random_fires(site, hit):
                spec = FaultSpec(site=site, kind="error", at=hit)
            else:
                return
        self.fired.append(FiredFault(site, hit, spec.kind, dict(context)))
        # Unguarded on purpose: a flight ring (no buffer, enabled=False)
        # still wants the fault in the black box it is about to dump.
        self.tracer.record(
            "fault_injected", site=site, hit=hit, fault=spec.kind
        )
        if spec.kind in ("kill", "wedge") and self.tracer.flight is not None:
            self.tracer.flight.dump(f"fault_{spec.kind}_{site}")
        if spec.kind == "delay":
            time.sleep(spec.delay_seconds)
        elif spec.kind == "alloc":
            if self.governor is not None:
                self.governor.charge_memory(spec.alloc_bytes)
        elif spec.kind == "kill":
            os._exit(KILLED_EXIT_CODE)
        elif spec.kind == "wedge":
            time.sleep(spec.delay_seconds or WEDGE_SECONDS)
        else:
            raise InjectedFault(site, hit)
