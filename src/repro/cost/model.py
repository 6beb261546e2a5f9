"""The cost model.

Costs abstract per-node wall-clock work: CPU work on partitioned streams is
divided by the segment count, singleton work runs on one host, replicated
inputs are processed in full on every node, and motions charge network
cost per shipped byte — with a skew penalty for redistribution on skewed
columns (the histogram-derived skew factor of Section 4.1).

Cost of a plan rooted at a group expression = local cost + sum of the
chosen child plans' costs.  Each physical operator's local cost is
written once, in :meth:`CostModel._formula`, as a function of per-node
output and input rows and at most one operator-specific input.  It is
evaluated two ways:

- :meth:`CostModel.local_cost` on the estimates, at the delivered
  distributions;
- :meth:`CostModel.local_cost_floor` at the **best-case layout**: every
  stream fully partitioned (rows ÷ segments), an index scan fetching no
  rows, a correlated inner plan costing 1, a redistribution skew of 1
  and no rows merged on the master.  Every formula is non-decreasing in each
  of these inputs, so no delivered layout costs less, and the floor is
  the sound lower bound branch-and-bound pruning needs (Section 4.1,
  Fig. 5).  The index's fetched rows and the merged rows do not depend
  on the layout, so the floor could be tighter; the search orders
  alternatives by floor, so tightening it changes the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.memo.context import StatsObject
from repro.ops import physical as ph
from repro.props.distribution import (
    DistributionSpec,
    ReplicatedDist,
    SingletonDist,
)
from repro.props.required import DerivedProps
from repro.trace import NULL_TRACER

#: Unit rates the cost model and the executor share and no one tunes
#: (unlike :class:`CostParams`): per merged input row of a merge join
#: (times ``cpu_tuple``), per row a limit keeps, per appended row, per
#: row a gather-merge orders on the master, per row a CTE consumer reads.
MERGE_JOIN_SCAN_FACTOR = 1.1
LIMIT_FACTOR = 0.1
APPEND_FACTOR = 0.2
GATHER_MERGE_FACTOR = 0.3
CTE_CONSUMER_FACTOR = 0.5


@dataclass(frozen=True)
class CostParams:
    """Tunable constants of the cost model.

    Section 7.2.2 attributes some of Orca's sub-optimal plans to "not
    properly adjusted cost model parameters"; keeping them in one place
    makes the TAQO-driven tuning loop (Section 6.2) possible.
    """

    cpu_tuple: float = 1.0          # process one tuple
    scan_tuple: float = 1.0         # read one tuple from disk
    index_tuple: float = 2.5        # random-access one tuple via an index
    index_startup: float = 50.0
    filter_factor: float = 0.4      # evaluate a predicate
    project_factor: float = 0.25    # compute one projection
    hash_build: float = 1.6
    hash_probe: float = 1.0
    nl_factor: float = 0.25         # per probed pair in nested loops
    sort_factor: float = 0.12
    agg_factor: float = 1.4
    window_factor: float = 2.0
    materialize_factor: float = 1.0
    net_byte: float = 0.25          # ship one byte through the interconnect
    broadcast_penalty: float = 0.25  # x segments
    startup: float = 10.0           # per-operator startup
    max_skew_penalty: float = 4.0


def local_rows(rows: float, dist: DistributionSpec, segments: int) -> float:
    """Rows processed on the busiest node given a distribution."""
    if isinstance(dist, (SingletonDist, ReplicatedDist)):
        return rows
    return rows / max(segments, 1)


class CostModel:
    """Computes per-operator local costs."""

    def __init__(
        self,
        params: Optional[CostParams] = None,
        segments: int = 16,
        tracer=None,
    ):
        self.params = params or CostParams()
        self.segments = max(segments, 1)
        self.tracer = tracer or NULL_TRACER

    # ------------------------------------------------------------------
    def local_cost(
        self,
        op,
        stats: StatsObject,
        child_stats: Sequence[StatsObject],
        child_delivered: Sequence[DerivedProps],
        child_costs: Sequence[float],
        delivered: DerivedProps,
    ) -> float:
        """Local cost of one physical operator instance: its formula on
        the estimates, at the delivered distributions."""
        seg = self.segments
        kind = type(op)
        inputs = {}
        if kind is ph.PhysicalIndexScan:
            fetched = op.fetch_rows_estimate
            if fetched is None:
                fetched = max(stats.row_count, 0.0)
            inputs["fetched"] = local_rows(fetched, delivered.dist, seg)
        elif kind is ph.PhysicalCorrelatedNLJoin:
            inputs["inner_cost"] = max(child_costs[1], 1.0)
        elif kind is ph.PhysicalRedistribute:
            inputs["skew"] = self._skew(child_stats[0], op.columns)
        elif kind is ph.PhysicalGatherMerge:
            inputs["merged"] = max(child_stats[0].row_count, 0.0)
        cost = self._formula(
            op,
            local_rows(max(stats.row_count, 0.0), delivered.dist, seg),
            [
                local_rows(max(s.row_count, 0.0), d.dist, seg)
                for s, d in zip(child_stats, child_delivered)
            ],
            child_stats,
            **inputs,
        )
        if self.tracer.enabled:
            self.tracer.record(
                "cost_computed",
                op=op.name, local_cost=cost, rows=stats.row_count,
            )
        return cost

    def local_cost_floor(
        self, op, stats: StatsObject, child_stats: Sequence[StatsObject]
    ) -> float:
        """Sound lower bound on :meth:`local_cost` over every possible
        delivered-property combination: the same formula at the best-case
        layout (see the module docstring)."""
        seg = self.segments
        return self._formula(
            op,
            max(stats.row_count, 0.0) / seg,
            [max(s.row_count, 0.0) / seg for s in child_stats],
            child_stats,
        )

    def _formula(
        self,
        op,
        out: float,
        ins: Sequence[float],
        child_stats: Sequence[StatsObject],
        fetched: float = 0.0, inner_cost: float = 1.0,
        skew: float = 1.0, merged: float = 0.0,
    ) -> float:
        """Local cost of ``op`` from its output rows per node ``out``,
        each child's input rows per node ``ins`` and the child statistics
        (motions ship full rows).  The keyword inputs are an index scan's
        fetched rows per node, a correlated join's inner plan cost, a
        redistribution's skew and a gather-merge's rows merged on the
        master; they default to the best case."""
        p = self.params
        kind = type(op)
        if kind is ph.PhysicalDynamicTableScan:
            return p.startup + out * p.scan_tuple * op.dpe.fraction
        if kind is ph.PhysicalTableScan:
            return p.startup + out * p.scan_tuple
        if kind is ph.PhysicalIndexScan:
            return p.index_startup + fetched * p.index_tuple
        if kind is ph.PhysicalFilter:
            return ins[0] * p.filter_factor
        if kind is ph.PhysicalProject:
            return ins[0] * p.project_factor * max(len(op.projections), 1)
        if kind is ph.PhysicalHashJoin:
            build = ins[1] * p.hash_build
            probe = ins[0] * p.hash_probe
            return p.startup + build + probe + out * p.cpu_tuple * 0.5
        if kind is ph.PhysicalMergeJoin:
            # One pass over each (already sorted) input.
            scan = (ins[0] + ins[1]) * p.cpu_tuple * MERGE_JOIN_SCAN_FACTOR
            return p.startup + scan + out * p.cpu_tuple * 0.5
        if kind is ph.PhysicalNLJoin:
            pairs = ins[0] * max(child_stats[1].row_count, 1.0)
            return p.startup + pairs * p.nl_factor + out * 0.5
        if kind is ph.PhysicalCorrelatedNLJoin:
            # The inner plan is re-evaluated once per outer row.
            return p.startup + ins[0] * inner_cost
        if kind is ph.PhysicalHashAgg:
            return p.startup + ins[0] * p.agg_factor + out * p.cpu_tuple
        if kind is ph.PhysicalStreamAgg:
            return p.startup + ins[0] * p.cpu_tuple + out * p.cpu_tuple
        if kind is ph.PhysicalSort:
            n = ins[0]
            return p.startup + n * math.log2(n + 2.0) * p.sort_factor
        if kind is ph.PhysicalLimit:
            return ins[0] * LIMIT_FACTOR
        if kind is ph.PhysicalWindow:
            return p.startup + ins[0] * p.window_factor
        if kind is ph.PhysicalAppend:
            return sum(ins) * APPEND_FACTOR
        if kind is ph.PhysicalGather:
            return self._motion_cost(child_stats[0], full_fanout=False)
        if kind is ph.PhysicalGatherMerge:
            return self._motion_cost(child_stats[0], full_fanout=False) + \
                merged * p.cpu_tuple * GATHER_MERGE_FACTOR
        if kind is ph.PhysicalRedistribute:
            motion = self._motion_cost(child_stats[0], full_fanout=False)
            return motion / self.segments * skew
        if kind is ph.PhysicalBroadcast:
            return self._motion_cost(child_stats[0], full_fanout=True)
        if kind is ph.PhysicalCTEConsumer:
            return p.startup + out * CTE_CONSUMER_FACTOR
        if kind is ph.PhysicalSequence:
            return 0.0
        raise TypeError(f"no cost formula for {kind.__name__}")

    # ------------------------------------------------------------------
    def _motion_cost(self, stats: StatsObject, full_fanout: bool) -> float:
        """Startup plus the network cost of shipping every row."""
        width = stats.width(stats.col_stats.keys()) if stats.col_stats else 32.0
        bytes_ = max(stats.row_count, 0.0) * width
        cost = self.params.startup + bytes_ * self.params.net_byte
        if full_fanout:
            cost *= self.segments * self.params.broadcast_penalty
        return cost

    def _skew(self, stats: StatsObject, columns) -> float:
        """Skew penalty for hash-redistributing on the given columns."""
        worst = 1.0
        for col in columns:
            cs = stats.column(col.id)
            if cs is not None and cs.histogram is not None:
                worst = max(worst, cs.histogram.skew())
        return min(worst, self.params.max_skew_penalty)
