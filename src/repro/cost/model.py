"""The cost model.

Costs abstract per-node wall-clock work: CPU work on partitioned streams is
divided by the segment count, singleton work runs on one host, replicated
inputs are processed in full on every node, and motions charge network
cost per shipped byte — with a skew penalty for redistribution on skewed
columns (the histogram-derived skew factor of Section 4.1).

Cost of a plan rooted at a group expression = local cost + sum of the
chosen child plans' costs; the search engine calls
:meth:`CostModel.local_cost` with the statistics and delivered properties
of the children.
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
    if isinstance(dist, SingletonDist):
        return rows
    if isinstance(dist, ReplicatedDist):
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
        """Local cost of one physical operator instance."""
        cost = self._local_cost(
            op, stats, child_stats, child_delivered, child_costs, delivered
        )
        if self.tracer.enabled:
            self.tracer.record(
                "cost_computed",
                op=op.name, local_cost=cost, rows=stats.row_count,
            )
        return cost

    def _local_cost(
        self,
        op,
        stats: StatsObject,
        child_stats: Sequence[StatsObject],
        child_delivered: Sequence[DerivedProps],
        child_costs: Sequence[float],
        delivered: DerivedProps,
    ) -> float:
        p = self.params
        seg = self.segments
        out_rows = max(stats.row_count, 0.0)
        out_local = local_rows(out_rows, delivered.dist, seg)

        def in_local(i: int) -> float:
            return local_rows(
                max(child_stats[i].row_count, 0.0), child_delivered[i].dist, seg
            )

        if isinstance(op, ph.PhysicalDynamicTableScan):
            return p.startup + out_local * p.scan_tuple * op.dpe.fraction
        if isinstance(op, ph.PhysicalTableScan):
            return p.startup + out_local * p.scan_tuple
        if isinstance(op, ph.PhysicalIndexScan):
            fetched = op.fetch_rows_estimate
            if fetched is None:
                fetched = out_rows
            fetched_local = local_rows(fetched, delivered.dist, seg)
            return p.index_startup + fetched_local * p.index_tuple
        if isinstance(op, ph.PhysicalFilter):
            return in_local(0) * p.filter_factor
        if isinstance(op, ph.PhysicalProject):
            return in_local(0) * p.project_factor * max(len(op.projections), 1)
        if isinstance(op, ph.PhysicalHashJoin):
            build = in_local(1) * p.hash_build
            probe = in_local(0) * p.hash_probe
            if op.selector_col_id is not None:
                # Dynamic partition elimination shrinks the probe side scan;
                # the probe stream itself is already reduced via DynamicScan
                # cost, so only charge the join work.
                pass
            return p.startup + build + probe + out_local * p.cpu_tuple * 0.5
        if isinstance(op, ph.PhysicalMergeJoin):
            # One pass over each (already sorted) input.
            scan = (
                (in_local(0) + in_local(1)) * p.cpu_tuple
                * MERGE_JOIN_SCAN_FACTOR
            )
            return p.startup + scan + out_local * p.cpu_tuple * 0.5
        if isinstance(op, ph.PhysicalNLJoin):
            pairs = in_local(0) * max(child_stats[1].row_count, 1.0)
            return p.startup + pairs * p.nl_factor + out_local * 0.5
        if isinstance(op, ph.PhysicalCorrelatedNLJoin):
            # The inner plan is re-evaluated once per outer row.
            inner_cost = max(child_costs[1], 1.0)
            return p.startup + in_local(0) * inner_cost
        if isinstance(op, (ph.PhysicalHashAgg, ph.PhysicalStreamAgg)):
            factor = p.agg_factor if isinstance(op, ph.PhysicalHashAgg) else p.cpu_tuple
            return p.startup + in_local(0) * factor + out_local * p.cpu_tuple
        if isinstance(op, ph.PhysicalSort):
            n = in_local(0)
            return p.startup + n * math.log2(n + 2.0) * p.sort_factor
        if isinstance(op, ph.PhysicalLimit):
            return in_local(0) * LIMIT_FACTOR
        if isinstance(op, ph.PhysicalWindow):
            return p.startup + in_local(0) * p.window_factor
        if isinstance(op, ph.PhysicalAppend):
            return (
                sum(in_local(i) for i in range(len(child_stats)))
                * APPEND_FACTOR
            )
        if isinstance(op, ph.PhysicalGather):
            return self._motion_cost(child_stats[0], full_fanout=False)
        if isinstance(op, ph.PhysicalGatherMerge):
            rows = max(child_stats[0].row_count, 0.0)
            return self._motion_cost(child_stats[0], full_fanout=False) + \
                rows * p.cpu_tuple * GATHER_MERGE_FACTOR
        if isinstance(op, ph.PhysicalRedistribute):
            skew = self._skew(child_stats[0], op.columns)
            return self._motion_cost(child_stats[0], full_fanout=False) / seg * skew
        if isinstance(op, ph.PhysicalBroadcast):
            return self._motion_cost(child_stats[0], full_fanout=True)
        if isinstance(op, ph.PhysicalCTEProducer):
            return in_local(0) * p.materialize_factor
        if isinstance(op, ph.PhysicalCTEConsumer):
            return p.startup + out_local * CTE_CONSUMER_FACTOR
        if isinstance(op, ph.PhysicalSequence):
            return 0.0
        # Unknown physical operator: charge per-tuple processing.
        return p.startup + out_local * p.cpu_tuple

    # ------------------------------------------------------------------
    def local_cost_floor(
        self,
        op,
        stats: StatsObject,
        child_stats: Sequence[StatsObject],
    ) -> float:
        """Sound lower bound on :meth:`local_cost` over every possible
        delivered-property combination.

        Used by branch-and-bound pruning (Section 4.1, Fig. 5) to abandon
        alternatives before their children are optimized.  Per-node row
        counts assume the best case everywhere — fully partitioned
        streams (``rows / segments``) — so for any actual distribution
        the real local cost can only be larger.  Must stay consistent
        with :meth:`_local_cost`; update both together.
        """
        p = self.params
        seg = self.segments
        out = max(stats.row_count, 0.0) / seg

        def cin(i: int) -> float:
            return max(child_stats[i].row_count, 0.0) / seg

        if isinstance(op, ph.PhysicalDynamicTableScan):
            return p.startup + out * p.scan_tuple * op.dpe.fraction
        if isinstance(op, ph.PhysicalTableScan):
            return p.startup + out * p.scan_tuple
        if isinstance(op, ph.PhysicalIndexScan):
            return p.index_startup
        if isinstance(op, ph.PhysicalFilter):
            return cin(0) * p.filter_factor
        if isinstance(op, ph.PhysicalProject):
            return cin(0) * p.project_factor * max(len(op.projections), 1)
        if isinstance(op, ph.PhysicalHashJoin):
            return (
                p.startup + cin(1) * p.hash_build + cin(0) * p.hash_probe
                + out * p.cpu_tuple * 0.5
            )
        if isinstance(op, ph.PhysicalMergeJoin):
            return (
                p.startup
                + (cin(0) + cin(1)) * p.cpu_tuple * MERGE_JOIN_SCAN_FACTOR
                + out * p.cpu_tuple * 0.5
            )
        if isinstance(op, ph.PhysicalNLJoin):
            pairs = cin(0) * max(child_stats[1].row_count, 1.0)
            return p.startup + pairs * p.nl_factor + out * 0.5
        if isinstance(op, ph.PhysicalCorrelatedNLJoin):
            # The inner cost factor is clamped to >= 1.0 in local_cost.
            return p.startup + cin(0)
        if isinstance(op, (ph.PhysicalHashAgg, ph.PhysicalStreamAgg)):
            factor = (
                p.agg_factor
                if isinstance(op, ph.PhysicalHashAgg)
                else p.cpu_tuple
            )
            return p.startup + cin(0) * factor + out * p.cpu_tuple
        if isinstance(op, ph.PhysicalSort):
            n = cin(0)
            return p.startup + n * math.log2(n + 2.0) * p.sort_factor
        if isinstance(op, ph.PhysicalLimit):
            return cin(0) * LIMIT_FACTOR
        if isinstance(op, ph.PhysicalWindow):
            return p.startup + cin(0) * p.window_factor
        if isinstance(op, ph.PhysicalAppend):
            return sum(cin(i) for i in range(len(child_stats))) * APPEND_FACTOR
        if isinstance(op, (ph.PhysicalGather, ph.PhysicalGatherMerge)):
            # Motion cost is charged on full (not per-segment) rows.
            return self._motion_cost(child_stats[0], full_fanout=False)
        if isinstance(op, ph.PhysicalRedistribute):
            return self._motion_cost(child_stats[0], full_fanout=False) / seg
        if isinstance(op, ph.PhysicalBroadcast):
            return self._motion_cost(child_stats[0], full_fanout=True)
        if isinstance(op, ph.PhysicalCTEProducer):
            return cin(0) * p.materialize_factor
        if isinstance(op, ph.PhysicalCTEConsumer):
            return p.startup + out * CTE_CONSUMER_FACTOR
        if isinstance(op, ph.PhysicalSequence):
            return 0.0
        return 0.0

    # ------------------------------------------------------------------
    def _row_width(self, stats: StatsObject) -> float:
        if not stats.col_stats:
            return 32.0
        return stats.width(stats.col_stats.keys())

    def _motion_cost(self, stats: StatsObject, full_fanout: bool) -> float:
        rows = max(stats.row_count, 0.0)
        bytes_ = rows * self._row_width(stats)
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
