"""The cost model.

Costs abstract per-node wall-clock work: CPU work on partitioned streams is
divided by the segment count, singleton work runs on one host, replicated
inputs are processed in full on every node, and motions charge network
cost per shipped byte — with a skew penalty for redistribution on skewed
columns (the histogram-derived skew factor of Section 4.1).

Cost of a plan rooted at a group expression = local cost + sum of the
chosen child plans' costs.  Every rate lives in this module, once.  Each
operator's rate × rows work is written once, in :func:`work_terms`, from
the rows each term reads; :meth:`CostModel._formula` adds an operator's
startup, its work terms left to right and its output term.  The terms
are evaluated three ways:

- **estimates** — :meth:`CostModel.local_cost`, on per-node estimated
  rows at the delivered distributions;
- **the pruning floor** — :meth:`CostModel.local_cost_floor`, at the
  **best-case layout**: every stream fully partitioned (rows ÷
  segments), an index scan fetching no rows, a correlated inner plan
  costing 1, a redistribution skew of 1 and no rows merged on the
  master.  Every formula is non-decreasing in each of these inputs, so
  no delivered layout costs less, and the floor is the sound lower
  bound branch-and-bound pruning needs (Section 4.1, Fig. 5).  The
  index's fetched rows and the merged rows do not depend on the layout,
  so the floor could be tighter; the search orders alternatives by
  floor, so tightening it changes the search;
- **execution actuals** — :class:`repro.engine.executor.Executor` and
  :func:`repro.engine.fused.run_chain` charge each node its work terms
  at the rows it actually read, so TAQO's estimated-vs-actual comparison
  (Section 6.2) shares one formula.  The executor charges no startup or
  output term, prices a motion by the bytes it ships (the clock's rate
  is :attr:`CostParams.net_byte`), and where its rows differ in kind from
  the model's (a sort's total rows against per-node rows, a limit's
  output rows against its input, probed pairs against estimated pairs)
  each side keeps its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.memo.context import StatsObject
from repro.ops import physical as ph
from repro.props.distribution import (
    DistributionSpec,
    ReplicatedDist,
    SingletonDist,
)
from repro.props.required import DerivedProps
from repro.trace import NULL_TRACER

#: Unit rates outside :class:`CostParams`: per merged input row of a
#: merge join (times ``cpu_tuple``), per row a limit keeps, per appended
#: row, per row a gather-merge orders on the master, per row a CTE
#: consumer reads.
MERGE_JOIN_SCAN_FACTOR = 1.1
LIMIT_FACTOR = 0.1
APPEND_FACTOR = 0.2
GATHER_MERGE_FACTOR = 0.3
CTE_CONSUMER_FACTOR = 0.5


@dataclass(frozen=True)
class CostParams:
    """The cost model's rates, one instance (:data:`RATES`).

    Section 7.2.2 attributes some of Orca's sub-optimal plans to "not
    properly adjusted cost model parameters"; keeping them in one place
    makes the TAQO-driven tuning loop (Section 6.2) possible.  No
    constructor takes another instance: the estimates, the pruning floor
    and the executor's charges all read these.
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


RATES = CostParams()


def work_terms(
    op, rows: Sequence[float], inner_cost: float = 1.0
) -> tuple[float, ...]:
    """``op``'s rate × rows work terms, in the order its local cost adds
    them.  ``rows`` are the rows the terms read: one count per child (a
    hash join's probe side, then its build side), except that a scan or
    CTE consumer reads the rows it produces, an index scan the rows it
    fetches, a nested-loops join the pairs it probes and a gather-merge
    the rows it merges on the master.  A correlated join re-runs its
    inner plan, of cost ``inner_cost``, per outer row.  The other motions
    ship bytes (:meth:`CostModel._motion_cost`) and, like a sequence,
    have no term."""
    r = RATES
    kind = type(op)
    if kind is ph.PhysicalTableScan or kind is ph.PhysicalDynamicTableScan:
        return (rows[0] * r.scan_tuple,)
    if kind is ph.PhysicalIndexScan:
        return (rows[0] * r.index_tuple,)
    if kind is ph.PhysicalFilter:
        return (rows[0] * r.filter_factor,)
    if kind is ph.PhysicalProject:
        return (rows[0] * r.project_factor * max(len(op.projections), 1),)
    if kind is ph.PhysicalHashJoin:
        return (rows[1] * r.hash_build, rows[0] * r.hash_probe)
    if kind is ph.PhysicalMergeJoin:
        # One pass over each (already sorted) input.
        return ((rows[0] + rows[1]) * r.cpu_tuple * MERGE_JOIN_SCAN_FACTOR,)
    if kind is ph.PhysicalNLJoin:
        return (rows[0] * r.nl_factor,)
    if kind is ph.PhysicalCorrelatedNLJoin:
        return (rows[0] * inner_cost,)
    if kind is ph.PhysicalHashAgg:
        return (rows[0] * r.agg_factor,)
    if kind is ph.PhysicalStreamAgg:
        return (rows[0] * r.cpu_tuple,)
    if kind is ph.PhysicalSort:
        n = rows[0]
        return (n * math.log2(n + 2.0) * r.sort_factor,)
    if kind is ph.PhysicalLimit:
        return (rows[0] * LIMIT_FACTOR,)
    if kind is ph.PhysicalWindow:
        return (rows[0] * r.window_factor,)
    if kind is ph.PhysicalAppend:
        return (sum(rows) * APPEND_FACTOR,)
    if kind is ph.PhysicalGatherMerge:
        return (rows[0] * r.cpu_tuple * GATHER_MERGE_FACTOR,)
    if kind in _MOTIONS or kind is ph.PhysicalSequence:
        return ()
    if kind is ph.PhysicalCTEProducer:
        return (rows[0] * r.materialize_factor,)
    if kind is ph.PhysicalCTEConsumer:
        return (rows[0] * CTE_CONSUMER_FACTOR,)
    raise TypeError(f"no cost formula for {kind.__name__}")


def spill_work(rows: float) -> float:
    """Writing out and reading back ``rows`` rows that overflow memory."""
    return 2.0 * rows * RATES.scan_tuple


_MOTIONS = frozenset((
    ph.PhysicalGather, ph.PhysicalGatherMerge, ph.PhysicalRedistribute,
    ph.PhysicalBroadcast,
))
#: Startups other than ``RATES.startup`` (motions price theirs with the
#: bytes they ship).
_STARTUP = {
    ph.PhysicalIndexScan: RATES.index_startup,
    ph.PhysicalFilter: 0.0, ph.PhysicalProject: 0.0, ph.PhysicalLimit: 0.0,
    ph.PhysicalAppend: 0.0, ph.PhysicalSequence: 0.0,
}
#: Per output row, the operators that pay for producing one.
_OUTPUT_RATE = {
    ph.PhysicalHashJoin: RATES.cpu_tuple * 0.5,
    ph.PhysicalMergeJoin: RATES.cpu_tuple * 0.5,
    ph.PhysicalNLJoin: RATES.cpu_tuple * 0.5,
    ph.PhysicalHashAgg: RATES.cpu_tuple,
    ph.PhysicalStreamAgg: RATES.cpu_tuple,
}


def local_rows(rows: float, dist: DistributionSpec, segments: int) -> float:
    """Rows processed on the busiest node given a distribution."""
    if isinstance(dist, (SingletonDist, ReplicatedDist)):
        return rows
    return rows / max(segments, 1)


class CostModel:
    """Computes per-operator local costs."""

    def __init__(self, segments: int = 16, tracer=None):
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
        """Local cost of ``op``: its startup (a motion's: the bytes it
        ships), its :func:`work_terms` added left to right, and its
        output term, from its output rows per node ``out``, each child's
        input rows per node ``ins`` and the child statistics (motions
        ship full rows).  The keyword inputs are an index scan's fetched
        rows per node, a correlated join's inner plan cost, a
        redistribution's skew and a gather-merge's rows merged on the
        master; they default to the best case."""
        kind = type(op)
        if kind in _MOTIONS:
            cost = self._motion_cost(
                child_stats[0], full_fanout=kind is ph.PhysicalBroadcast
            )
            if kind is ph.PhysicalRedistribute:
                cost = cost / self.segments * skew
            ins = (merged,)
        else:
            cost = _STARTUP.get(kind, RATES.startup)
            if kind is ph.PhysicalTableScan or kind is ph.PhysicalCTEConsumer:
                ins = (out,)
            elif kind is ph.PhysicalDynamicTableScan:
                ins = (out * op.dpe.fraction,)
            elif kind is ph.PhysicalIndexScan:
                ins = (fetched,)
            elif kind is ph.PhysicalNLJoin:
                ins = (ins[0] * max(child_stats[1].row_count, 1.0),)
        for term in work_terms(op, ins, inner_cost):
            cost += term
        return cost + out * _OUTPUT_RATE.get(kind, 0.0)

    # ------------------------------------------------------------------
    def _motion_cost(self, stats: StatsObject, full_fanout: bool) -> float:
        """Startup plus the network cost of shipping every row."""
        width = stats.width(stats.col_stats.keys()) if stats.col_stats else 32.0
        bytes_ = max(stats.row_count, 0.0) * width
        cost = RATES.startup + bytes_ * RATES.net_byte
        if full_fanout:
            cost *= self.segments * RATES.broadcast_penalty
        return cost

    def _skew(self, stats: StatsObject, columns) -> float:
        """Skew penalty for hash-redistributing on the given columns."""
        worst = 1.0
        for col in columns:
            cs = stats.column(col.id)
            if cs is not None and cs.histogram is not None:
                worst = max(worst, cs.histogram.skew())
        return min(worst, RATES.max_skew_penalty)
