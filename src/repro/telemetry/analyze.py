"""EXPLAIN ANALYZE: per-plan-node actuals next to the optimizer's estimates.

The executor charges every unit of work to the plan node that incurs it:
one :class:`NodeStats` per node in the execution's ledger
(:attr:`repro.engine.metrics.ExecutionMetrics.ledger`), which this
analysis reads as it stands.  A node's entry is its exclusive work; its
inclusive work is its subtree's entries summed in ``walk()`` order, the
order the executor sums the whole plan in when it fills its metrics.  The
root's inclusive totals are therefore *float-identical* to the final
:class:`repro.engine.metrics.ExecutionMetrics` — which is what lets
:func:`taqo_from_annotations` reproduce the TAQO correlation score
(Section 6.2) from the plan annotations alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.search.plan import PlanNode


@dataclass
class NodeStats:
    """Actuals for one plan node, summed over all its executions.

    ``seg_work`` / ``master_work`` / ``net_bytes`` are the node's own
    charges, its children's excluded.  ``loops`` counts executions (a
    correlated inner plan runs once per distinct outer binding).
    """

    loops: int = 0
    rows_out: int = 0
    seg_work: list[float] = field(default_factory=list)
    master_work: float = 0.0
    net_bytes: float = 0.0

    def total_work(self) -> float:
        return sum(self.seg_work) + self.master_work

    def skew(self) -> float:
        """max/mean per-segment work ratio (1.0 = perfectly balanced)."""
        if not self.seg_work:
            return 1.0
        mean = sum(self.seg_work) / len(self.seg_work)
        if mean <= 0.0:
            return 1.0
        return max(self.seg_work) / mean


def sum_work(entries: Iterable[Optional[NodeStats]], segments: int) -> NodeStats:
    """The work of ``entries`` added up in the order given (``None``, a
    node that never ran, adds nothing)."""
    total = NodeStats(seg_work=[0.0] * segments)
    seg = total.seg_work
    for entry in entries:
        if entry is None:
            continue
        for i, units in enumerate(entry.seg_work):
            seg[i] += units
        total.master_work += entry.master_work
        total.net_bytes += entry.net_bytes
    return total


@dataclass
class PlanAnalysis:
    """Per-node actuals for one executed plan, keyed by node identity."""

    plan: PlanNode
    segments: int
    #: ``id(node)`` -> NodeStats (node objects are unique within a plan
    #: tree and alive for the analysis' lifetime via ``plan``).
    node_stats: dict[int, NodeStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def stats_for(self, node: PlanNode) -> NodeStats:
        stats = self.node_stats.get(id(node))
        if stats is None:
            stats = NodeStats(seg_work=[0.0] * self.segments)
            self.node_stats[id(node)] = stats
        return stats

    def inclusive(self, node: PlanNode) -> NodeStats:
        """The work of ``node``'s subtree, summed in ``walk()`` order;
        ``loops`` and ``rows_out`` are the node's own."""
        own = self.stats_for(node)
        total = sum_work(
            (self.node_stats.get(id(n)) for n in node.walk()), self.segments
        )
        total.loops, total.rows_out = own.loops, own.rows_out
        return total

    def exclusive_work(self, node: PlanNode) -> float:
        """This node's own work."""
        return self.stats_for(node).total_work()

    def exclusive_net_bytes(self, node: PlanNode) -> float:
        return self.stats_for(node).net_bytes

    # ------------------------------------------------------------------
    def simulated_seconds(self) -> float:
        """The executed plan's simulated wall-clock, from the root's
        inclusive work: float-identical to
        ``ExecutionMetrics.simulated_seconds()`` for the same execution."""
        # Imported lazily: repro.engine imports the executor, which
        # imports this module — a top-level import would be circular.
        from repro.engine.metrics import simulated_seconds

        root = self.inclusive(self.plan)
        return simulated_seconds(
            root.seg_work, root.master_work, root.net_bytes
        )

    def total_rows(self) -> int:
        return self.stats_for(self.plan).rows_out

    # ------------------------------------------------------------------
    def render(self, indent: int = 0) -> str:
        """EXPLAIN ANALYZE text: estimates and actuals on every node."""
        return self._render_node(self.plan, indent)

    def _render_node(self, node: PlanNode, indent: int) -> str:
        pad = "  " * indent
        stats = self.stats_for(node)
        rows = stats.rows_out // stats.loops if stats.loops else 0
        line = (
            f"{pad}-> {node.op!r}  (rows={node.rows_estimate:.0f} "
            f"cost={node.cost:.1f}) "
            f"(actual rows={rows} loops={stats.loops} "
            f"work={self.exclusive_work(node):.1f} "
            f"net_bytes={self.exclusive_net_bytes(node):.0f})"
        )
        parts = [line]
        for child in node.children:
            parts.append(self._render_node(child, indent + 1))
        return "\n".join(parts)

    def summary(self) -> str:
        root = self.inclusive(self.plan)
        return (
            f"actual total: rows={root.rows_out} work={root.total_work():.1f} "
            f"net_bytes={root.net_bytes:.0f} skew={root.skew():.2f} "
            f"simulated_seconds={self.simulated_seconds():.6f}"
        )

    # ------------------------------------------------------------------
    def estimation_errors(self) -> list[tuple[str, float, int]]:
        """(operator, estimated rows, actual rows-per-loop) per node —
        the same estimated-vs-actual pairs TAQO consumes."""
        out = []
        for node in self.plan.walk():
            stats = self.stats_for(node)
            rows = stats.rows_out // stats.loops if stats.loops else 0
            out.append((node.op.name, node.rows_estimate, rows))
        return out


def analyze_execution(plan: PlanNode, cluster, output_cols=None, **kwargs):
    """Execute ``plan`` with node-stat collection; returns the
    :class:`repro.engine.executor.ExecutionResult` whose ``analysis``
    field carries the :class:`PlanAnalysis`."""
    from repro.engine.executor import Executor

    executor = Executor(cluster, **kwargs)
    return executor.execute(plan, output_cols, analyze=True)


def taqo_from_annotations(
    memo,
    req,
    cluster,
    output_cols: Optional[Sequence] = None,
    n: int = 20,
    seed: int = 42,
    cte_plans=None,
):
    """The TAQO experiment, driven purely by EXPLAIN ANALYZE annotations.

    Samples the same plans as :func:`repro.verify.taqo.run_taqo` (same
    seed, same sampler) but takes each plan's actual cost from its
    :class:`PlanAnalysis` root instead of from the executor's metrics
    object.  Because the two are float-identical, the resulting
    correlation score must match ``run_taqo`` exactly — the acceptance
    check that EXPLAIN ANALYZE measures the same clock TAQO does.
    """
    from repro.verify import taqo as taqo_mod

    samples = taqo_mod.sample_plans(memo, req, n, seed=seed,
                                    cte_plans=cte_plans)
    for sample in samples:
        result = analyze_execution(sample.plan, cluster, output_cols)
        sample.actual_seconds = result.analysis.simulated_seconds()
    counts: dict = {}
    return taqo_mod.TaqoReport(
        samples=samples,
        correlation=taqo_mod.correlation_score(samples),
        plan_space_size=taqo_mod.count_plans(memo, memo.root, req, counts),
    )
