"""Q-error: the multiplicative yardstick for cardinality estimates.

The q-error of an (estimate, actual) pair is ``max(e, a) / min(e, a)``
after clamping both sides to a positive floor — the factor by which the
estimate is off, direction-blind, which is the error model that actually
predicts plan-choice damage (a 100x underestimate and a 100x
overestimate mislead the cost model equally).  Workload-level quality is
the *geometric* mean of per-node q-errors: q-errors are multiplicative,
so an arithmetic mean would let one huge node swamp a hundred perfect
ones.

The floor clamp is the zero/empty-cardinality guard: nodes that produce
no rows (empty scan, fully-filtering predicate) or estimates of zero
would otherwise divide by zero.  Clamping both sides to ``floor`` bounds
the q-error of any pair at ``max(e, a) / floor`` and makes the
(0 estimated, 0 actual) pair exactly 1.0 — a correct estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

#: Default positive clamp for zero/empty cardinalities.  One row: the
#: smallest cardinality an executed node can be "off by a factor" from.
DEFAULT_FLOOR = 1.0


def qerror(estimated: float, actual: float, floor: float = DEFAULT_FLOOR) -> float:
    """Bounded q-error of one (estimate, actual) pair, always >= 1.0.

    Both sides are clamped to ``floor`` (> 0), so zero or negative
    inputs never raise and never return infinity.
    """
    if floor <= 0.0:
        raise ValueError("q-error floor must be positive")
    e = max(float(estimated), floor)
    a = max(float(actual), floor)
    return e / a if e >= a else a / e


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 1.0 for an empty sequence."""
    total = 0.0
    count = 0
    for value in values:
        total += math.log(value)
        count += 1
    if count == 0:
        return 1.0
    return math.exp(total / count)


@dataclass
class NodeQError:
    """One plan node's estimate vs. actual."""

    operator: str
    estimated_rows: float
    actual_rows: float
    qerror: float


@dataclass
class QErrorReport:
    """Per-node and aggregate q-error for one executed plan."""

    nodes: list[NodeQError] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def geomean(self) -> float:
        return geometric_mean(n.qerror for n in self.nodes)

    @property
    def max_qerror(self) -> float:
        return max((n.qerror for n in self.nodes), default=1.0)

    @property
    def median(self) -> float:
        if not self.nodes:
            return 1.0
        ordered = sorted(n.qerror for n in self.nodes)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def worst(self, n: int = 5) -> list[NodeQError]:
        return sorted(self.nodes, key=lambda x: -x.qerror)[:n]

    def render(self) -> str:
        lines = [
            f"plan q-error: geomean={self.geomean:.3f} "
            f"median={self.median:.3f} max={self.max_qerror:.3f} "
            f"({len(self.nodes)} nodes)"
        ]
        for node in self.worst():
            lines.append(
                f"  {node.operator}: est={node.estimated_rows:.0f} "
                f"actual={node.actual_rows:.0f} q={node.qerror:.2f}"
            )
        return "\n".join(lines)


def plan_qerror(analysis, floor: float = DEFAULT_FLOOR) -> QErrorReport:
    """Q-error report for one executed plan's
    :class:`repro.telemetry.analyze.PlanAnalysis`.

    Uses per-loop actuals (a correlated inner side is compared against
    the estimate for *one* execution, matching what the optimizer
    estimated); nodes that never ran (loops == 0) are skipped rather
    than scored as empty.
    """
    report = QErrorReport()
    for node in analysis.plan.walk():
        stats = analysis.stats_for(node)
        if stats.loops <= 0:
            continue
        actual = stats.rows_out / stats.loops
        report.nodes.append(NodeQError(
            operator=node.op.name,
            estimated_rows=node.rows_estimate,
            actual_rows=actual,
            qerror=qerror(node.rows_estimate, actual, floor),
        ))
    return report


@dataclass
class WorkloadQError:
    """Aggregate q-error over a workload of executed plans."""

    plans: list[QErrorReport] = field(default_factory=list)

    def add(self, report: QErrorReport) -> None:
        self.plans.append(report)

    @property
    def node_count(self) -> int:
        return sum(len(p) for p in self.plans)

    @property
    def geomean(self) -> float:
        """Geometric mean over every node of every plan (the headline
        number the feedback benchmark gates on)."""
        return geometric_mean(
            n.qerror for p in self.plans for n in p.nodes
        )

    @property
    def max_qerror(self) -> float:
        return max((p.max_qerror for p in self.plans), default=1.0)

    def render(self) -> str:
        return (
            f"workload q-error: geomean={self.geomean:.3f} "
            f"max={self.max_qerror:.3f} over {self.node_count} nodes "
            f"in {len(self.plans)} plans"
        )


def workload_qerror(
    analyses: Iterable, floor: float = DEFAULT_FLOOR
) -> WorkloadQError:
    """Aggregate q-error over many executed plans' analyses."""
    workload = WorkloadQError()
    for analysis in analyses:
        if analysis is None:
            continue
        workload.add(plan_qerror(analysis, floor))
    return workload
