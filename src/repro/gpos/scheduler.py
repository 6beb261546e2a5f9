"""The optimization job scheduler (Section 4.2, Figure 8).

Optimization work is broken into small jobs.  Jobs are re-entrant state
machines: each call to :meth:`Job.step` either completes the job or
returns child jobs the scheduler must finish first, suspending the parent.
Dependencies are parent/child links; a parent resumes when its last
pending child completes.

Two mechanisms from the paper are reproduced faithfully:

- **per-goal queues**: "when an optimization job with some goal is under
  processing, all other incoming jobs with the same goal are forced to
  wait until getting notified about the completion of the running job".
  Goals are hashable keys; a second job arriving with an already-running
  goal is *not* executed — its parents simply wait on the first one.

- **suspension**: "while child jobs are progressing, the parent job needs
  to be suspended ... when all child jobs complete, the suspended parent
  job is notified to resume processing".

The scheduler runs serially: CPython's GIL prevents true CPU
parallelism.  The recorded job log (durations + dependency edges) feeds
:func:`simulate_makespan`, a list-scheduling simulation that computes
what k genuinely parallel workers would achieve on the same job graph —
our substitution for the paper's multi-core speedup measurements.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Optional, Sequence

from repro.trace import NULL_TRACER


class Job:
    """A re-entrant optimization job."""

    #: Identifies the goal; two jobs with the same goal share one execution.
    goal: Hashable = None
    kind = "job"

    # Scalar state starts from class-level defaults, so constructing one
    # of the tens of thousands of jobs of a search only allocates what
    # is per-instance.
    _step = 0
    pending_children = 0
    done = False
    #: Position in the scheduler's first-seen order (-1 until seen).
    #: Kept on the job: a side table keyed by ``id(job)`` would hand a
    #: finished, collected job's id to whichever job reuses its address.
    job_id = -1

    def __init__(self) -> None:
        self.parents: list[Job] = []

    def step(self, scheduler: "JobScheduler") -> Optional[Sequence["Job"]]:
        """Run one step.  Return child jobs to wait on, or None when done."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.kind}({self.goal})"


@dataclass(slots=True)
class JobRecord:
    """One executed job step, for the DAG makespan simulation."""

    job_id: int
    kind: str
    duration: float
    #: ids of jobs this step's completion unblocked (dependency edges).
    depends_on: tuple[int, ...] = ()


class JobScheduler:
    """Executes a job graph with suspend/resume and per-goal deduplication."""

    def __init__(self, tracer=None, governor=None):
        self._jobs_by_goal: dict[Hashable, Job] = {}
        self._queue: deque[Job] = deque()
        self.jobs_executed = 0
        self.steps_executed = 0
        self.job_log: list[JobRecord] = []
        self._next_job_id = 0
        self.kind_counts: dict[str, int] = {}
        self.tracer = tracer or NULL_TRACER
        #: Cooperative resource governor (repro.gpos.governor); checked
        #: once per job step, may raise SearchTimeout/MemoryQuotaExceeded.
        self.governor = governor

    # ------------------------------------------------------------------
    def run(self, root: Job, job_budget: Optional[int] = None) -> None:
        """Run ``root`` and every job it spawns to completion.

        ``job_budget`` caps the number of job *steps* executed; on
        exhaustion remaining work is abandoned (the multi-stage
        optimization timeout of Section 4.1).
        """
        self._enqueue_new(root)
        queue = self._queue
        governor = self.governor
        execute_step = self._execute_step
        while queue:
            if job_budget is not None and self.steps_executed >= job_budget:
                queue.clear()
                return
            if governor is not None:
                governor.on_job_step()
            execute_step(queue.popleft())

    # ------------------------------------------------------------------
    def _job_id(self, job: Job) -> int:
        """The job's id, assigned on first sight (first-seen order)."""
        if job.job_id < 0:
            job.job_id = self._next_job_id
            self._next_job_id += 1
        return job.job_id

    def _execute_step(self, job: Job) -> None:
        clock = time.perf_counter
        start = clock()
        children = job.step(self)
        duration = clock() - start
        self.steps_executed += 1
        queue = self._queue
        # Every job but a new child (and the root, on its first step)
        # already holds its id: read it without the call.
        job_id = self._job_id
        own_id = job.job_id
        if children:
            pending = 0
            child_ids = []
            by_goal = self._jobs_by_goal
            for child in children:
                # Nothing is filed under the goal None, so a goal-less
                # child is always new.
                existing = by_goal.get(child.goal)
                if existing is None:
                    self._enqueue_new(child)
                    child.parents.append(job)
                elif existing.done:
                    continue
                else:
                    # Same goal already queued/running: wait on it instead
                    # (the per-goal job queue of Section 4.2).
                    existing.parents.append(job)
                    child = existing
                pending += 1
                child_id = child.job_id
                child_ids.append(child_id if child_id >= 0 else job_id(child))
            self.job_log.append(JobRecord(
                own_id if own_id >= 0 else job_id(job),
                job.kind, duration, tuple(child_ids),
            ))
            if pending == 0:
                queue.append(job)  # nothing to wait for: resume
            else:
                job.pending_children += pending
        else:
            job.done = True
            self.jobs_executed += 1
            kind = job.kind
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + 1
            self.job_log.append(JobRecord(
                own_id if own_id >= 0 else job_id(job), kind, duration
            ))
            if self.tracer.enabled:
                self.tracer.record(
                    "job_done", job_kind=kind, seconds=duration,
                    job_id=job.job_id,
                )
            for parent in job.parents:
                parent.pending_children -= 1
                if parent.pending_children == 0:
                    queue.append(parent)
            job.parents = []

    def _enqueue_new(self, job: Job) -> None:
        if job.goal is not None:
            self._jobs_by_goal[job.goal] = job
        self._queue.append(job)
        if self.tracer.enabled:
            self.tracer.record(
                "job_scheduled", job_kind=job.kind, job_id=self._job_id(job)
            )


def simulate_makespan(records: Iterable[JobRecord], workers: int) -> float:
    """List-scheduling makespan of the recorded job-step DAG on k workers.

    Each record is a unit of work with its measured serial duration; a
    record that waited on children cannot start before they finish.  This
    computes the wall-clock a k-core scheduler could achieve, reproducing
    the scalability property of the paper's multi-core claim without
    fighting the GIL.
    """
    records = list(records)
    if not records:
        return 0.0
    ready: list[tuple[float, int]] = []  # (ready_time, record index)
    indegree: dict[int, int] = {}
    dependents: dict[int, list[int]] = {}
    for i in range(len(records)):
        indegree[i] = 0
    first_step: dict[int, int] = {}
    final_step: dict[int, int] = {}
    for i, rec in enumerate(records):
        first_step.setdefault(rec.job_id, i)
        final_step[rec.job_id] = i
    edges: set[tuple[int, int]] = set()
    # (a) A step follows the previous step of the same job, and a resume
    # step additionally waits for the final steps of the children spawned
    # by that previous step.
    last_step: dict[int, int] = {}
    for i, rec in enumerate(records):
        prev = last_step.get(rec.job_id)
        if prev is not None:
            edges.add((prev, i))
            for child_job in records[prev].depends_on:
                j = final_step.get(child_job)
                if j is not None and j < i:
                    edges.add((j, i))
        last_step[rec.job_id] = i
    # (b) A child's first step cannot start before the step that spawned
    # it (per-goal sharing may make a "child" an already-finished job, in
    # which case no edge applies).
    for i, rec in enumerate(records):
        for child_job in rec.depends_on:
            j = first_step.get(child_job)
            if j is not None and j > i:
                edges.add((i, j))
    for src, dst in edges:
        dependents.setdefault(src, []).append(dst)
        indegree[dst] += 1
    ready_time = [0.0] * len(records)
    for i in range(len(records)):
        if indegree[i] == 0:
            heapq.heappush(ready, (0.0, i))
    worker_free = [0.0] * max(workers, 1)
    heapq.heapify(worker_free)
    finish = [0.0] * len(records)
    while ready:
        r_time, i = heapq.heappop(ready)
        w = heapq.heappop(worker_free)
        start = max(r_time, w)
        end = start + records[i].duration
        finish[i] = end
        heapq.heappush(worker_free, end)
        for dep in dependents.get(i, []):
            indegree[dep] -= 1
            ready_time[dep] = max(ready_time[dep], end)
            if indegree[dep] == 0:
                heapq.heappush(ready, (ready_time[dep], dep))
    return max(finish) if finish else 0.0
