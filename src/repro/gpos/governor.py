"""Per-session resource governance (the GPOS abort/quota layer).

Section 4.2's portability layer exists so a host DBMS can bound what the
optimizer consumes: GPOS threads periodically poll an abort flag, and the
memory manager enforces pool quotas.  :class:`ResourceGovernor` is the
cooperative analogue for this reproduction: the job scheduler calls
:meth:`on_job_step` once per executed job step, which

- raises :class:`repro.errors.SearchTimeout` once the wall-clock deadline
  or the deterministic job-step limit is exhausted, and
- every ``memory_check_stride`` steps probes the tracked memory footprint
  (the Memo's allocation accountant + explicit :meth:`charge_memory`
  charges) and raises
  :class:`repro.errors.MemoryQuotaExceeded` past the byte quota.

Checks are cooperative by design — nothing is interrupted mid-step — so
the Memo is always in a consistent state when a governor error unwinds,
which is what makes best-plan-so-far extraction after a timeout safe.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import MemoryQuotaExceeded, SearchTimeout


class ResourceGovernor:
    """Cooperative deadline + memory-quota enforcement for one session.

    One governor is armed per optimized query (:meth:`arm` resets the
    clock and counters); the same instance can be reused across queries
    so per-session peaks survive in :attr:`peak_memory_bytes`.
    """

    def __init__(
        self,
        *,
        deadline_seconds: Optional[float] = None,
        job_limit: Optional[int] = None,
        memory_quota_bytes: Optional[int] = None,
        memory_check_stride: int = 64,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.deadline_seconds = deadline_seconds
        self.job_limit = job_limit
        self.memory_quota_bytes = memory_quota_bytes
        self.memory_check_stride = max(int(memory_check_stride), 1)
        self._clock = clock
        self._start = clock()
        self.steps = 0
        #: Bytes charged explicitly (allocation spikes, fault injection).
        self.charged_bytes = 0
        #: Callable returning the probed footprint (set per search stage).
        self._memory_probe: Optional[Callable[[], int]] = None
        self.peak_memory_bytes = 0
        #: How many times each limit tripped (session metrics).
        self.timeouts = 0
        self.quota_trips = 0

    @classmethod
    def from_config(cls, config) -> Optional["ResourceGovernor"]:
        """A governor matching ``config``'s limits, or None when ungoverned."""
        if not config.governed():
            return None
        deadline = config.search_deadline_ms
        return cls(
            deadline_seconds=deadline / 1000.0 if deadline is not None else None,
            job_limit=config.search_job_limit,
            memory_quota_bytes=config.memory_quota_bytes,
            memory_check_stride=config.memory_check_stride,
        )

    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start (or restart) the per-query clock and counters."""
        self._start = self._clock()
        self.steps = 0
        self.charged_bytes = 0
        self._memory_probe = None

    def elapsed_seconds(self) -> float:
        return self._clock() - self._start

    def set_memory_probe(self, probe: Optional[Callable[[], int]]) -> None:
        """Install the footprint probe the periodic quota check calls."""
        self._memory_probe = probe

    # ------------------------------------------------------------------
    def on_job_step(self) -> None:
        """One cooperative checkpoint; called per executed job step."""
        self.steps += 1
        if self.job_limit is not None and self.steps > self.job_limit:
            self.timeouts += 1
            raise SearchTimeout(
                f"job-step limit {self.job_limit} exhausted",
                elapsed_seconds=self.elapsed_seconds(),
                steps=self.steps,
                job_limit=self.job_limit,
            )
        if self.deadline_seconds is not None:
            elapsed = self.elapsed_seconds()
            if elapsed > self.deadline_seconds:
                self.timeouts += 1
                raise SearchTimeout(
                    f"search deadline {self.deadline_seconds * 1000:.0f}ms "
                    f"exceeded after {elapsed * 1000:.0f}ms",
                    elapsed_seconds=elapsed,
                    deadline_seconds=self.deadline_seconds,
                    steps=self.steps,
                )
        if (
            self.memory_quota_bytes is not None
            and self.steps % self.memory_check_stride == 0
        ):
            self.check_memory()

    # ------------------------------------------------------------------
    def current_memory_bytes(self) -> int:
        probed = self._memory_probe() if self._memory_probe is not None else 0
        return probed + self.charged_bytes

    def charge_memory(self, amount_bytes: int) -> None:
        """Record an explicit allocation and re-check the quota at once."""
        self.charged_bytes += max(int(amount_bytes), 0)
        if self.memory_quota_bytes is not None:
            self.check_memory()

    def check_memory(self) -> None:
        used = self.current_memory_bytes()
        if used > self.peak_memory_bytes:
            self.peak_memory_bytes = used
        if (
            self.memory_quota_bytes is not None
            and used > self.memory_quota_bytes
        ):
            self.quota_trips += 1
            raise MemoryQuotaExceeded(
                used_bytes=used, quota_bytes=self.memory_quota_bytes
            )
