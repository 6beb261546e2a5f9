"""Request-routing policies for the optimizer fleet.

The orchestrator asks a policy which worker should serve each request.
Policies see a read-only :class:`WorkerView` per worker (load counters,
liveness) plus the request's SQL text, and answer with a worker id.
``choose`` runs under the orchestrator's routing lock, one call at a
time, and ``in_flight`` already counts every request routed but not yet
answered.  Two policies cover the classic trade-off:

- ``round-robin`` — the next *idle* worker in rotation, else the next in
  rotation; no state beyond a cursor.  A single client finds every
  worker idle, so it sees strict rotation — the differential tests use
  it because that makes the fleet-vs-single-process comparison
  deterministic — while concurrent clients do not queue behind a busy
  worker when another one is free.
- ``affinity`` — a stable hash of the query's *fingerprint* (literals
  parameterized away, so repeats of a shape with different constants
  hash identically) picks the worker; it is the one policy that
  fingerprints the text.  Repeat shapes land on the worker whose local
  plan cache is already warm for them, trading spread for cache
  locality — the shared store still backstops cold workers.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from repro.errors import OptimizerError
from repro.telemetry.stats_store import fingerprint_query


@dataclass
class WorkerView:
    """What a routing policy may know about one worker."""

    worker_id: int
    alive: bool = True
    in_flight: int = 0
    completed: int = 0
    restarts: int = 0
    #: Cumulative requests routed here (routing accounting, not load).
    routed: int = 0


class RoutingPolicy:
    """Base class: pick a worker id for one request."""

    name = "abstract"

    def choose(self, sql: str, workers: list[WorkerView]) -> int:
        raise NotImplementedError

    def _alive(self, workers: list[WorkerView]) -> list[WorkerView]:
        alive = [w for w in workers if w.alive]
        if not alive:
            raise OptimizerError("no alive workers to route to")
        return alive


class RoundRobinPolicy(RoutingPolicy):
    """Rotation over alive workers that steps past busy ones.

    The pick is the first idle worker at or after the cursor; when none
    is idle it is the worker at the cursor.  The cursor moves to just
    past the pick, so with every worker idle this is strict rotation.
    """

    name = "round-robin"

    def __init__(self):
        self._cursor = 0

    def choose(self, sql: str, workers: list[WorkerView]) -> int:
        alive = self._alive(workers)
        count = len(alive)
        skip = next(
            (k for k in range(count)
             if alive[(self._cursor + k) % count].in_flight == 0),
            0,
        )
        picked = alive[(self._cursor + skip) % count]
        self._cursor += skip + 1
        return picked.worker_id


class AffinityPolicy(RoutingPolicy):
    """Fingerprint-stable placement: repeat shapes hit warm caches.

    CRC32 (not ``hash``) so placement is identical across processes and
    interpreter runs — the same property the fault injector relies on.
    """

    name = "affinity"

    def choose(self, sql: str, workers: list[WorkerView]) -> int:
        alive = self._alive(workers)
        fingerprint, _ = fingerprint_query(sql)
        slot = zlib.crc32(fingerprint.encode()) % len(alive)
        return alive[slot].worker_id


#: name -> policy class.
POLICIES = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    AffinityPolicy.name: AffinityPolicy,
}


def make_policy(name: str) -> RoutingPolicy:
    """A fresh policy by name."""
    factory = POLICIES.get(name)
    if factory is None:
        raise OptimizerError(
            f"unknown routing policy {name!r}; expected one of "
            f"{sorted(POLICIES)}"
        )
    return factory()
