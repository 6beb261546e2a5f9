"""Execution metrics and the simulated clock."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cost.model import RATES
from repro.errors import TimeoutError_
from repro.telemetry.analyze import NodeStats, sum_work

#: Simulated seconds per unit of per-node CPU work (1M units/second).
CPU_SECONDS_PER_UNIT = 1e-6
#: Simulated seconds per byte crossing the interconnect: the cost
#: model's rate, so TAQO's estimated-vs-actual comparison measures
#: estimation error, not a units mismatch between the two clocks.
NET_SECONDS_PER_BYTE = RATES.net_byte * CPU_SECONDS_PER_UNIT


def simulated_seconds(
    segment_work: Sequence[float], master_work: float, net_bytes: float
) -> float:
    """The simulated wall-clock of a work vector: the busiest segment
    plus the master plus the interconnect."""
    busiest = max(segment_work) if segment_work else 0.0
    return (
        (busiest + master_work) * CPU_SECONDS_PER_UNIT
        + net_bytes * NET_SECONDS_PER_BYTE
    )


@dataclass
class ExecutionMetrics:
    """Work accounting for one plan execution.

    ``segment_work`` tracks per-segment CPU work units; the simulated
    elapsed time is driven by the *busiest* segment (plus the master and
    the interconnect), so data skew and singleton bottlenecks show up
    exactly as they would on a real shared-nothing cluster.

    Every charge lands in :attr:`ledger` on the plan node that incurs
    it; :meth:`close` fills ``segment_work``, ``master_work`` and
    ``net_bytes`` once, by summing the ledger in ``plan.walk()`` order.
    """

    segments: int
    segment_work: list[float] = field(default_factory=list)
    master_work: float = 0.0
    net_bytes: float = 0.0
    rows_scanned: int = 0
    rows_moved: int = 0
    rows_spilled: int = 0
    partitions_scanned: int = 0
    partitions_eliminated: int = 0
    subplan_executions: int = 0
    #: Optional budget on simulated seconds (the 10000 s cap of §7.2.2).
    time_limit_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.segment_work:
            self.segment_work = [0.0] * self.segments
        #: ``id(plan node)`` -> that node's own charges, rows and loops
        #: (what EXPLAIN ANALYZE reads as the plan's per-node actuals).
        self.ledger: dict[int, NodeStats] = {}

    # ------------------------------------------------------------------
    def node(self, node) -> NodeStats:
        """``node``'s ledger entry, opened on its first charge."""
        entry = self.ledger.get(id(node))
        if entry is None:
            entry = self.ledger[id(node)] = NodeStats(
                seg_work=[0.0] * self.segments
            )
        return entry

    def charge_segment(self, node, segment: int, units: float) -> None:
        self.node(node).seg_work[segment] += units

    def charge_all_segments(self, node, units_each: float) -> None:
        seg = self.node(node).seg_work
        for i in range(self.segments):
            seg[i] += units_each

    def charge_master(self, node, units: float) -> None:
        self.node(node).master_work += units

    def charge_network(self, node, num_bytes: float) -> None:
        self.node(node).net_bytes += num_bytes

    def check_budget(self) -> None:
        if self.time_limit_seconds is None:
            return
        spent = sum_work(self.ledger.values(), self.segments)
        if (
            simulated_seconds(
                spent.seg_work, spent.master_work, spent.net_bytes
            )
            > self.time_limit_seconds
        ):
            raise TimeoutError_(
                f"execution exceeded {self.time_limit_seconds:.0f} simulated "
                "seconds"
            )

    def work_of(self, plan) -> NodeStats:
        """The ledger's work for ``plan``'s subtree, summed in
        ``plan.walk()`` order."""
        return sum_work(
            (self.ledger.get(id(n)) for n in plan.walk()), self.segments
        )

    def close(self, plan) -> None:
        """Order the ledger as ``plan.walk()`` visits the executed
        ``plan`` and fill the work fields from it, summed in that order."""
        ledger = self.ledger
        self.ledger = {
            id(n): ledger[id(n)] for n in plan.walk() if id(n) in ledger
        }
        total = sum_work(self.ledger.values(), self.segments)
        self.segment_work = total.seg_work
        self.master_work = total.master_work
        self.net_bytes = total.net_bytes

    # ------------------------------------------------------------------
    def simulated_seconds(self) -> float:
        """The simulated wall-clock of this execution."""
        return simulated_seconds(
            self.segment_work, self.master_work, self.net_bytes
        )

    def total_work(self) -> float:
        """All work charged, added up node by node in ledger order — the
        sum of EXPLAIN ANALYZE's per-node work, exactly."""
        return sum(entry.total_work() for entry in self.ledger.values())
