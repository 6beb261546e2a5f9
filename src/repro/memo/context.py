"""Optimization contexts, per-expression plan info and group statistics.

Figure 6 of the paper shows two hash-table layers: each *group* hash table
maps an optimization request to the best group expression satisfying it,
and each *group expression* keeps a local hash table mapping incoming
requests to the child requests it chose.  :class:`OptimizationContext` is
one row of a group hash table; :class:`PlanInfo` is one row of a local
hash table.  Together they form the linkage structure used for plan
extraction (Section 4.1) and for TAQO's uniform plan sampling
(Section 6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.catalog.statistics import ColumnStats
from repro.props.required import DerivedProps, RequiredProps


@dataclass
class PlanInfo:
    """One costed way a group expression satisfies a request.

    ``child_reqs`` records the request sent to each child group — the
    linkage used when extracting a plan from the Memo.  ``epoch`` is the
    optimization stage that computed the cost; later stages recompute
    (child groups may have gained cheaper plans) instead of trusting a
    stale entry.
    """

    cost: float
    child_reqs: tuple[RequiredProps, ...]
    delivered: DerivedProps
    local_cost: float = 0.0
    epoch: int = 0
    #: True when every alternative was fully costed (or the recorded best
    #: provably beats all abandoned ones).  Pruned searches may record
    #: incomplete entries — achievable, so safe for extraction, but a
    #: possible overestimate of this expression's true best, so they are
    #: never reused as a same-epoch cache hit.
    complete: bool = True


@dataclass
class OptimizationContext:
    """Best known plan for (group, required properties).

    Branch-and-bound state (Section 4.1, Fig. 5):

    - ``best_cost`` is the incumbent: the cheapest fully-costed plan seen
      so far, and the one prune threshold.  Candidates whose partial cost
      already reaches it can never become the context's best and are
      pruned.  Every request runs unbounded, so a finished context holds
      the exact best for every requester.
    - ``generation`` is bumped whenever a context is reopened (a stage
      reset or a group merge), so rescheduled jobs get fresh scheduler
      goals instead of deduplicating against the completed run.
    """

    req: RequiredProps
    best_gexpr_id: Optional[int] = None
    best_cost: float = math.inf
    done: bool = False
    #: Reopen generation, part of rescheduled jobs' goals.
    generation: int = 0

    def consider(self, gexpr_id: int, cost: float) -> bool:
        """Record a candidate; returns True if it became the new best."""
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_gexpr_id = gexpr_id
            return True
        return False

    def has_plan(self) -> bool:
        return self.best_gexpr_id is not None and math.isfinite(self.best_cost)

    def finish(self) -> None:
        """Mark the search complete."""
        self.done = True

    def reset_for_redo(self) -> None:
        """Reopen the search (a new stage, or a merge brought in new
        expressions).

        The incumbent survives (it is a real, achievable plan cost and
        seeds pruning in the redo); the generation bump gives redo jobs
        fresh scheduler goals.
        """
        self.done = False
        self.generation += 1


@dataclass
class StatsObject:
    """Statistics attached to a Memo group (Section 4.1, step 2).

    A row-count estimate plus column statistics keyed by ColRef id.  Stats
    objects are attached to groups and can be incrementally updated --
    'this is crucial to keep the cost of statistics derivation manageable'.

    ``confidence`` implements the paper's open problem ("we are currently
    exploring several methods to compute confidence scores in the compact
    Memo structure"): a [0, 1] score aggregated across the nodes of the
    picked derivation — analyzed base tables start near 1.0 and every
    estimation step that relies on defaults or independence assumptions
    damps it.  Statistics promise uses it to prefer derivations that
    propagate fewer stacked guesses.
    """

    row_count: float
    col_stats: dict[int, ColumnStats] = field(default_factory=dict)
    confidence: float = 1.0

    def damp_confidence(self, factor: float) -> None:
        self.confidence = min(max(self.confidence * factor, 0.0), 1.0)

    def column(self, col_id: int) -> Optional[ColumnStats]:
        return self.col_stats.get(col_id)

    def width(self, col_ids) -> float:
        """Total byte width of the given columns (8 when unknown)."""
        total = 0.0
        for cid in col_ids:
            stats = self.col_stats.get(cid)
            total += stats.width if stats is not None else 8
        return total

    def add_column(self, col_id: int, stats: ColumnStats) -> None:
        """Incrementally attach a new column histogram."""
        self.col_stats[col_id] = stats

    def scaled(self, selectivity: float) -> "StatsObject":
        selectivity = min(max(selectivity, 0.0), 1.0)
        return StatsObject(
            row_count=max(self.row_count * selectivity, 0.0),
            col_stats={
                cid: cs.scaled(selectivity) for cid, cs in self.col_stats.items()
            },
            confidence=self.confidence,
        )
