"""GPOS: the OS abstraction layer (Section 3).

Provides the job scheduler with dependency tracking (Section 4.2), memory
accounting, the analytic multi-worker makespan simulator used to
reproduce the multi-core scalability claims, and (``repro.gpos.process``)
the supervised worker processes the fleet and the morsel pool run on.
"""

from repro.gpos.scheduler import Job, JobScheduler, JobRecord
from repro.gpos.memory import MemoryTracker

__all__ = ["Job", "JobScheduler", "JobRecord", "MemoryTracker"]
