"""The plan interpreter: executes physical plans on the simulated cluster.

Rows really move: motions re-bucket or replicate them, hash joins build
per-segment hash tables (and OOM or spill past the memory limit),
correlated nested loops re-evaluate their inner plan per outer row, and
dynamic scans consult partition-selector values published by hash-join
build sides (Section 7.2.2, Partition Elimination).

Work is charged per segment on the :class:`ExecutionMetrics` clock using
the same :class:`~repro.cost.model.CostParams` constants the optimizer's
cost model uses — which is what makes the TAQO estimated-vs-actual
correlation experiment (Section 6.2) meaningful.  Each charge is a
closed-form function of row counts and lands on the plan node that
incurs it (``ExecutionMetrics.ledger``), so the compiled engine of
:mod:`repro.engine.fused` reaches the same figures from its counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.catalog.schema import DistributionPolicy
from repro.config import ExecutionMode
from repro.cost.model import (
    APPEND_FACTOR,
    CTE_CONSUMER_FACTOR,
    GATHER_MERGE_FACTOR,
    LIMIT_FACTOR,
    MERGE_JOIN_SCAN_FACTOR,
    CostParams,
)
from repro.engine.cluster import Cluster
from repro.engine.metrics import ExecutionMetrics
from repro.errors import ExecutionError, OutOfMemoryError
from repro.ops import physical as ph
from repro.ops.logical import ApplyKind, JoinKind
from repro.ops.scalar import AggFunc, ColRef, WindowFunc
from repro.props.order import SortKey
from repro.search.plan import PlanNode
from repro.telemetry.analyze import PlanAnalysis
from repro.telemetry.families import fold_execution
from repro.trace import NULL_TRACER

SEGMENTED, SINGLETON, REPLICATED = "segmented", "singleton", "replicated"


@dataclass
class DRows:
    """A distributed rowset: per-segment buckets, one master copy, or one
    replicated copy."""

    kind: str
    cols: list[ColRef]
    buckets: list[list[tuple]]

    def total_rows(self) -> int:
        return sum(len(b) for b in self.buckets)

    def bucket_sizes(self) -> list[int]:
        return [len(b) for b in self.buckets]

    def single_copy(self) -> list[tuple]:
        if self.kind in (SINGLETON, REPLICATED):
            return self.buckets[0]
        # When a single segment holds every row (common after filters on
        # the distribution key, and always when segments == 1), hand that
        # bucket back instead of copying it; callers treat the result as
        # read-only either way.
        populated = [b for b in self.buckets if b]
        if len(populated) == 1:
            return populated[0]
        out: list[tuple] = []
        for b in populated:
            out.extend(b)
        return out

    def width(self) -> int:
        return sum(c.dtype.width for c in self.cols) or 8


@dataclass
class ExecutionResult:
    rows: list[tuple]
    columns: list[ColRef]
    metrics: ExecutionMetrics
    #: Per-node actuals (the execution's ledger), populated when
    #: executing with ``analyze=True`` (or when a telemetry registry is
    #: attached).
    analysis: Optional[PlanAnalysis] = None

    def simulated_seconds(self) -> float:
        return self.metrics.simulated_seconds()


def _positions(cols: Sequence[ColRef], wanted: Sequence[ColRef]) -> list[int]:
    index = {c.id: i for i, c in enumerate(cols)}
    try:
        return [index[c.id] for c in wanted]
    except KeyError as exc:
        raise ExecutionError(
            f"column {exc} not found among {[str(c) for c in cols]}"
        ) from exc


def _sort_rows(
    rows: list[tuple], cols: Sequence[ColRef], keys: Sequence[SortKey]
) -> list[tuple]:
    index = {c.id: i for i, c in enumerate(cols)}
    out = list(rows)
    for key in reversed(list(keys)):
        pos = index[key.col_id]
        out.sort(
            key=lambda r: (r[pos] is None, r[pos]),
            reverse=not key.ascending,
        )
    return out


class Executor:
    """Executes one plan at a time over a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        params: Optional[CostParams] = None,
        time_limit_seconds: Optional[float] = None,
        cache_correlated_work: bool = False,
        per_op_startup_units: float = 0.0,
        materialize_output_factor: float = 0.0,
        tracer=None,
        execution_mode: Optional[ExecutionMode] = None,
        morsel_pool=None,
    ):
        self.cluster = cluster
        self.params = params or CostParams()
        mode = (
            ExecutionMode.FUSED if execution_mode is None
            else ExecutionMode.coerce(execution_mode)
        )
        #: How plans execute (row / fused).  Rows, ExecutionMetrics and
        #: EXPLAIN ANALYZE are float-identical in both modes; ``ROW`` is
        #: the reference path.
        self.execution_mode = mode
        self._fused = mode is ExecutionMode.FUSED
        self._fused_chains: dict[int, Any] = {}
        if self._fused:
            from repro.engine.fused import FUSED_HANDLERS

            self._handlers = {**self._HANDLERS, **FUSED_HANDLERS}
        else:
            self._handlers = self._HANDLERS
        self.tracer = tracer or NULL_TRACER
        #: Morsel-driven parallelism (fused streaming phase only): the
        #: caller's pool (repro.engine.parallel.make_pool), which the
        #: caller drains; None runs serial.
        self._morsel_pool = morsel_pool if self._fused else None
        self.time_limit_seconds = time_limit_seconds
        #: When False, each re-execution of a correlated inner plan is
        #: charged in full even if its result was memoized (the legacy
        #: Planner really re-executes; we memoize for real-time sanity but
        #: keep the clock honest).
        self.cache_correlated_work = cache_correlated_work
        #: MapReduce-style engines (Stinger, Section 7.3) pay per-stage
        #: startup and materialize intermediate results to disk.
        self.per_op_startup_units = per_op_startup_units
        self.materialize_output_factor = materialize_output_factor
        self.metrics = ExecutionMetrics(segments=cluster.segments)
        self._param_env: dict[int, Any] = {}
        self._selector_values: dict[int, set] = {}
        self._wanted_selectors: set[int] = set()
        self._cte_store: dict[int, DRows] = {}

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanNode,
        output_cols: Optional[Sequence[ColRef]] = None,
        *,
        analyze: bool = False,
    ) -> ExecutionResult:
        self.metrics = ExecutionMetrics(
            segments=self.cluster.segments,
            time_limit_seconds=self.time_limit_seconds,
        )
        self._selector_values = {}
        self._cte_store = {}
        if self._fused:
            from repro.engine.fused import fused_chains

            self._fused_chains = fused_chains(plan)
            if self.tracer.enabled:
                self.tracer.record(
                    "pipeline_segmented",
                    chains=len(self._fused_chains),
                    fused_nodes=sum(
                        1 + len(c.ops) for c in self._fused_chains.values()
                    ),
                )
        self._wanted_selectors = {
            node.op.dpe.selector_col_id
            for node in plan.walk()
            if isinstance(node.op, ph.PhysicalDynamicTableScan)
        }
        with self.tracer.span("execute"):
            result = self._exec(plan)
            rows = result.single_copy()
        self.metrics.close(plan)
        cols = result.cols
        if output_cols:
            positions = _positions(cols, output_cols)
            rows = [tuple(r[p] for p in positions) for r in rows]
            cols = list(output_cols)
        if self.tracer.enabled:
            self.tracer.record(
                "execution_metrics",
                simulated_seconds=self.metrics.simulated_seconds(),
                rows_scanned=self.metrics.rows_scanned,
                rows_moved=self.metrics.rows_moved,
                rows_spilled=self.metrics.rows_spilled,
                rows_out=len(rows),
                partitions_scanned=self.metrics.partitions_scanned,
                partitions_eliminated=self.metrics.partitions_eliminated,
                subplan_executions=self.metrics.subplan_executions,
            )
        # Per-node actuals are handed out for EXPLAIN ANALYZE and whenever
        # a metrics registry wants per-operator work attribution.
        analysis = (
            PlanAnalysis(
                plan=plan, segments=self.cluster.segments,
                node_stats=self.metrics.ledger,
            )
            if analyze or self.tracer.registry is not None
            else None
        )
        fold_execution(self.tracer, plan, self.metrics, len(rows), analysis)
        return ExecutionResult(
            rows=rows, columns=cols, metrics=self.metrics, analysis=analysis,
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _exec(self, node: PlanNode) -> DRows:
        chain = self._fused_chains.get(id(node))
        if chain is not None:
            from repro.engine.fused import run_chain

            result = run_chain(self, chain)
        else:
            handler = self._handlers.get(type(node.op))
            if handler is None:
                raise ExecutionError(f"no executor for operator {node.op!r}")
            result = handler(self, node)
        self._node_done(node, result.kind, result.bucket_sizes())
        return result

    def _node_done(self, node: PlanNode, kind: str, sizes: list[int]) -> None:
        """Close one executed node, in either engine: its stage
        overheads, its cardinality record, its rows and loops in the
        ledger, the ``operator_executed`` event and the budget check."""
        metrics = self.metrics
        if self.per_op_startup_units:
            metrics.charge_all_segments(node, self.per_op_startup_units)
        rows = sum(sizes)
        if self.materialize_output_factor:
            self._charge_by_kind(
                node, kind, sizes, rows * self.materialize_output_factor
            )
        metrics.cardinalities.append((repr(node.op), node.rows_estimate, rows))
        entry = metrics.node(node)
        entry.loops += 1
        entry.rows_out += rows
        if self.tracer.enabled:
            self.tracer.record(
                "operator_executed",
                op=node.op.name, rows_out=rows,
                rows_estimated=node.rows_estimate,
            )
        metrics.check_budget()

    def _charge_by_kind(
        self, node: PlanNode, kind: str, sizes: list[int], units: float
    ) -> None:
        """Charge ``units`` of work spread over a rowset: all on the
        master, in full on every segment, or per bucket by its rows."""
        if kind == SINGLETON:
            self.metrics.charge_master(node, units)
        elif kind == REPLICATED:
            self.metrics.charge_all_segments(node, units)
        else:
            rate = units / max(sum(sizes), 1)
            for i, size in enumerate(sizes):
                self.metrics.charge_segment(node, i, size * rate)

    def _charge_at(self, node: PlanNode, seg: int, units: float) -> None:
        """Charge one join work unit (segment ``-1`` is the master)."""
        if seg == -1:
            self.metrics.charge_master(node, units)
        else:
            self.metrics.charge_segment(node, seg, units)

    def _env(self, cols_index: dict[int, int], row: tuple) -> dict[int, Any]:
        env = {cid: row[pos] for cid, pos in cols_index.items()}
        if self._param_env:
            for cid, value in self._param_env.items():
                env.setdefault(cid, value)
        return env

    @staticmethod
    def _index(cols: Sequence[ColRef]) -> dict[int, int]:
        return {c.id: i for i, c in enumerate(cols)}

    def _check_memory(
        self, node: PlanNode, rows: list[tuple], cols, op_name: str
    ) -> None:
        width = sum(c.dtype.width for c in cols) or 8
        needed = len(rows) * width
        if needed <= self.cluster.memory_limit_bytes:
            return
        if self.cluster.spill_enabled:
            self.metrics.rows_spilled += len(rows)
            # Spilling writes and re-reads the overflow.
            overflow = needed - self.cluster.memory_limit_bytes
            self.metrics.charge_all_segments(
                node, 2.0 * overflow / max(width, 1) * self.params.scan_tuple
            )
        else:
            raise OutOfMemoryError(
                op_name, needed, self.cluster.memory_limit_bytes
            )

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _partition_ids(self, op) -> list[int]:
        table = op.table
        nparts = table.num_partitions()
        static = list(op.partitions) if op.partitions is not None else list(
            range(nparts)
        )
        if isinstance(op, ph.PhysicalDynamicTableScan):
            values = self._selector_values.get(op.dpe.selector_col_id)
            if values is not None and table.partitioning is not None:
                runtime = set()
                for v in values:
                    idx = table.partitioning.route(v)
                    if idx is not None:
                        runtime.add(idx)
                eliminated = [p for p in static if p not in runtime]
                self.metrics.partitions_eliminated += len(eliminated)
                static = [p for p in static if p in runtime]
        return static

    def _scan_rows(self, op) -> list[tuple]:
        parts = self._partition_ids(op)
        self.metrics.partitions_scanned += len(parts)
        rows = self.cluster.db.scan(op.table.name, parts)
        self.metrics.rows_scanned += len(rows)
        return rows

    def _distribute(self, op, rows: list[tuple]) -> DRows:
        table = op.table
        cols = list(op.columns)
        if table.distribution is DistributionPolicy.REPLICATED:
            return DRows(REPLICATED, cols, [rows])
        if table.distribution is DistributionPolicy.RANDOM:
            buckets = self.cluster.distribute_rows(rows, None)
        else:
            positions = [
                table.column_index(name) for name in table.distribution_columns
            ]
            buckets = self.cluster.distribute_rows(rows, positions)
        return DRows(SEGMENTED, cols, buckets)

    def _exec_scan(self, node: PlanNode) -> DRows:
        op = node.op
        rows = self._scan_rows(op)
        result = self._distribute(op, rows)
        self._charge_by_kind(
            node, result.kind, result.bucket_sizes(),
            len(rows) * self.params.scan_tuple,
        )
        return result

    def _index_fetch(self, node: PlanNode) -> DRows:
        """Range-fetch, distribute, order and charge an index scan —
        everything except the residual predicate (each mode applies its
        own)."""
        op = node.op
        rows = self.cluster.db.scan(op.table.name)
        pos = op.table.column_index(op.index.column)
        fetched = []
        for row in rows:
            v = row[pos]
            if v is None:
                continue
            if op.lo is not None:
                if op.lo_inclusive and v < op.lo:
                    continue
                if not op.lo_inclusive and v <= op.lo:
                    continue
            if op.hi is not None:
                if op.hi_inclusive and v > op.hi:
                    continue
                if not op.hi_inclusive and v >= op.hi:
                    continue
            fetched.append(row)
        self.metrics.rows_scanned += len(fetched)
        result = self._distribute(op, fetched)
        # Index scans deliver rows ordered by the indexed column.
        key = SortKey(op.index_col.id)
        result = DRows(
            result.kind,
            result.cols,
            [
                _sort_rows(b, result.cols, [key]) for b in result.buckets
            ],
        )
        self._charge_by_kind(
            node, result.kind, result.bucket_sizes(),
            len(fetched) * self.params.index_tuple,
        )
        return result

    def _exec_index_scan(self, node: PlanNode) -> DRows:
        op: ph.PhysicalIndexScan = node.op
        result = self._index_fetch(node)
        if op.residual is not None:
            index = self._index(result.cols)
            result = DRows(
                result.kind,
                result.cols,
                [
                    [
                        r for r in b
                        if op.residual.evaluate(self._env(index, r)) is True
                    ]
                    for b in result.buckets
                ],
            )
        return result

    # ------------------------------------------------------------------
    # Row-at-a-time
    # ------------------------------------------------------------------
    def _exec_filter(self, node: PlanNode) -> DRows:
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        pred = node.op.predicate
        out_buckets = []
        for b in child.buckets:
            out_buckets.append(
                [r for r in b if pred.evaluate(self._env(index, r)) is True]
            )
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            child.total_rows() * self.params.filter_factor,
        )
        return DRows(child.kind, child.cols, out_buckets)

    def _exec_project(self, node: PlanNode) -> DRows:
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        projections = node.op.projections
        out_cols = list(child.cols) + [c for _e, c in projections]
        out_buckets = []
        for b in child.buckets:
            new_bucket = []
            for r in b:
                env = self._env(index, r)
                new_bucket.append(
                    r + tuple(e.evaluate(env) for e, _c in projections)
                )
            out_buckets.append(new_bucket)
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            child.total_rows() * self.params.project_factor * len(projections),
        )
        return DRows(child.kind, out_cols, out_buckets)

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_sides(self, kind: str, buckets: list[list[tuple]], inner: DRows):
        """Yield (segment_id_or_-1, outer_rows, inner_rows) work units for
        an outer side of ``kind`` with ``buckets``.

        segment -1 means the master.
        """
        if kind == SINGLETON:
            return [(-1, buckets[0], inner.single_copy())]
        if kind == REPLICATED and inner.kind == REPLICATED:
            return [(0, buckets[0], inner.buckets[0])]
        pairs = []
        for seg in range(self.cluster.segments):
            o = buckets[0] if kind == REPLICATED else buckets[seg]
            if inner.kind in (REPLICATED, SINGLETON):
                i = inner.buckets[0]
            else:
                i = inner.buckets[seg]
            pairs.append((seg, o, i))
        return pairs

    @staticmethod
    def _join_output_kind(outer_kind: str, inner_kind: str) -> str:
        if outer_kind == SINGLETON:
            return SINGLETON
        if outer_kind == REPLICATED and inner_kind == REPLICATED:
            return REPLICATED
        return SEGMENTED

    def _publish_selectors(self, build: DRows) -> None:
        wanted = self._wanted_selectors & {c.id for c in build.cols}
        for col_id in wanted:
            pos = self._index(build.cols)[col_id]
            values = self._selector_values.setdefault(col_id, set())
            for bucket in build.buckets:
                for row in bucket:
                    if row[pos] is not None:
                        values.add(row[pos])

    def _exec_hash_join(self, node: PlanNode) -> DRows:
        op: ph.PhysicalHashJoin = node.op
        inner = self._exec(node.children[1])
        self._publish_selectors(inner)
        outer = self._exec(node.children[0])
        o_index = self._index(outer.cols)
        i_index = self._index(inner.cols)
        l_pos = [o_index[c.id] for c in op.left_keys]
        r_pos = [i_index[c.id] for c in op.right_keys]
        left_only = op.kind.output_is_left_only()
        out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
            inner.cols
        )
        null_pad = (None,) * len(inner.cols)
        residual = op.residual
        # The residual sees both sides whatever the join puts out: a
        # SEMI / ANTI join's rows have no build side, its residual may.
        combined_index = self._index(list(outer.cols) + list(inner.cols))
        kind = self._join_output_kind(outer.kind, inner.kind)
        out_buckets: list[list[tuple]] = []
        for seg, o_rows, i_rows in self._join_sides(
            outer.kind, outer.buckets, inner
        ):
            self._charge_hash_side(node, seg, len(o_rows), i_rows, inner.cols)
            table: dict[tuple, list[tuple]] = {}
            for row in i_rows:
                key = tuple(row[p] for p in r_pos)
                if any(v is None for v in key):
                    continue
                table.setdefault(key, []).append(row)
            matched_out: list[tuple] = []
            for row in o_rows:
                key = tuple(row[p] for p in l_pos)
                candidates = (
                    table.get(key, []) if not any(v is None for v in key) else []
                )
                hit = False
                for cand in candidates:
                    if residual is not None:
                        env = self._env(combined_index, row + cand)
                        if residual.evaluate(env) is not True:
                            continue
                    hit = True
                    if op.kind is JoinKind.INNER or op.kind is JoinKind.LEFT:
                        matched_out.append(row + cand)
                    elif op.kind is JoinKind.SEMI:
                        matched_out.append(row)
                        break
                    else:  # ANTI: presence of a match drops the row
                        break
                if not hit:
                    if op.kind is JoinKind.LEFT:
                        matched_out.append(row + null_pad)
                    elif op.kind is JoinKind.ANTI:
                        matched_out.append(row)
            out_buckets.append(matched_out)
        return DRows(kind, out_cols, out_buckets)

    def _charge_hash_side(
        self, node: PlanNode, seg: int, probes: int, build: list[tuple], cols
    ) -> None:
        """One hash-join work unit's charges, in either engine: the build
        side's memory check, then building and probing."""
        self._check_memory(node, build, cols, "HashJoin")
        self._charge_at(
            node, seg,
            len(build) * self.params.hash_build
            + probes * self.params.hash_probe,
        )

    def _exec_merge_join(self, node: PlanNode) -> DRows:
        op: ph.PhysicalMergeJoin = node.op
        outer = self._exec(node.children[0])
        inner = self._exec(node.children[1])
        o_index = self._index(outer.cols)
        i_index = self._index(inner.cols)
        l_pos = [o_index[c.id] for c in op.left_keys]
        r_pos = [i_index[c.id] for c in op.right_keys]
        left_only = op.kind.output_is_left_only()
        out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
            inner.cols
        )
        null_pad = (None,) * len(inner.cols)
        combined_index = self._index(list(outer.cols) + list(inner.cols))
        kind = self._join_output_kind(outer.kind, inner.kind)
        out_buckets: list[list[tuple]] = []
        for seg, o_rows, i_rows in self._join_sides(
            outer.kind, outer.buckets, inner
        ):
            bucket = _merge_join_segment(
                o_rows, i_rows, l_pos, r_pos, op, null_pad,
                combined_index, self._env,
            )
            self._charge_at(
                node, seg,
                (len(o_rows) + len(i_rows)) * self.params.cpu_tuple
                * MERGE_JOIN_SCAN_FACTOR,
            )
            out_buckets.append(bucket)
        return DRows(kind, out_cols, out_buckets)

    def _exec_nl_join(self, node: PlanNode) -> DRows:
        op: ph.PhysicalNLJoin = node.op
        outer = self._exec(node.children[0])
        inner = self._exec(node.children[1])
        left_only = op.kind.output_is_left_only()
        out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
            inner.cols
        )
        null_pad = (None,) * len(inner.cols)
        kind = self._join_output_kind(outer.kind, inner.kind)
        out_buckets = []
        full_index = self._index(list(outer.cols) + list(inner.cols))
        for seg, o_rows, i_rows in self._join_sides(
            outer.kind, outer.buckets, inner
        ):
            pairs = 0
            bucket = []
            for o_row in o_rows:
                hit = False
                for i_row in i_rows:
                    pairs += 1
                    ok = True
                    if op.condition is not None:
                        env = self._env(full_index, o_row + i_row)
                        ok = op.condition.evaluate(env) is True
                    if not ok:
                        continue
                    hit = True
                    if op.kind in (JoinKind.INNER, JoinKind.LEFT):
                        bucket.append(o_row + i_row)
                    elif op.kind is JoinKind.SEMI:
                        bucket.append(o_row)
                        break
                    else:
                        break
                if not hit:
                    if op.kind is JoinKind.LEFT:
                        bucket.append(o_row + null_pad)
                    elif op.kind is JoinKind.ANTI:
                        bucket.append(o_row)
            self._charge_at(node, seg, pairs * self.params.nl_factor)
            out_buckets.append(bucket)
            self.metrics.check_budget()
        return DRows(kind, out_cols, out_buckets)

    def _exec_correlated(self, node: PlanNode) -> DRows:
        op: ph.PhysicalCorrelatedNLJoin = node.op
        outer = self._exec(node.children[0])
        inner_plan = node.children[1]
        o_index = self._index(outer.cols)
        inner_cols = list(op.inner_cols)
        out_cols = (
            list(outer.cols) + inner_cols
            if op.kind is ApplyKind.SCALAR
            else list(outer.cols)
        )
        null_pad = (None,) * len(inner_cols)
        cache: dict[tuple, tuple[list[tuple], float, float]] = {}
        out_buckets = []
        param_ids = sorted(op.outer_refs)
        for seg_rows in outer.buckets:
            bucket = []
            for o_row in seg_rows:
                env = self._env(o_index, o_row)
                key = tuple(env.get(cid) for cid in param_ids)
                if key in cache:
                    rows, work, net = cache[key]
                    if not self.cache_correlated_work:
                        # Charge as if the subplan really re-ran.
                        self.metrics.charge_master(node, work)
                        self.metrics.charge_network(node, net)
                        self.metrics.subplan_executions += 1
                else:
                    saved_env = self._param_env
                    self._param_env = {**saved_env, **{
                        cid: env.get(cid) for cid in param_ids
                    }}
                    before = self.metrics.work_of(inner_plan)
                    inner_result = self._exec(inner_plan)
                    self._param_env = saved_env
                    rows = inner_result.single_copy()
                    # What this binding's run added to the inner subtree.
                    after = self.metrics.work_of(inner_plan)
                    cache[key] = (
                        rows,
                        after.total_work() - before.total_work(),
                        after.net_bytes - before.net_bytes,
                    )
                    self.metrics.subplan_executions += 1
                if op.kind is ApplyKind.SEMI:
                    if rows:
                        bucket.append(o_row)
                elif op.kind is ApplyKind.ANTI:
                    if not rows:
                        bucket.append(o_row)
                else:  # SCALAR
                    if rows:
                        bucket.append(o_row + tuple(rows[0]))
                    else:
                        bucket.append(o_row + null_pad)
                self.metrics.check_budget()
            out_buckets.append(bucket)
        return DRows(outer.kind, out_cols, out_buckets)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _exec_agg(self, node: PlanNode) -> DRows:
        op = node.op
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        g_pos = [index[c.id] for c in op.group_cols]
        out_cols = list(op.group_cols) + [c for _a, c in op.aggs]
        is_stream = isinstance(op, ph.PhysicalStreamAgg)
        factor = self.params.cpu_tuple if is_stream else self.params.agg_factor
        out_buckets = []
        for bucket in child.buckets:
            groups: dict[tuple, list] = {}
            for row in bucket:
                key = tuple(row[p] for p in g_pos)
                state = groups.get(key)
                if state is None:
                    state = [_agg_init(a) for a, _c in op.aggs]
                    groups[key] = state
                env = self._env(index, row)
                for slot, (agg, _c) in zip(state, op.aggs):
                    _agg_add(slot, agg, env)
            if not op.group_cols and not groups:
                # Scalar aggregation over empty input still yields one row
                # (identity values), on every participating node for the
                # partial stage.
                groups[()] = [_agg_init(a) for a, _c in op.aggs]
            self._check_memory(node, list(groups), out_cols, op.name)
            out_rows = []
            for key, state in groups.items():
                out_rows.append(
                    key + tuple(
                        _agg_final(slot, agg)
                        for slot, (agg, _c) in zip(state, op.aggs)
                    )
                )
            if is_stream and op.group_cols:
                out_rows = _sort_rows(
                    out_rows, out_cols, [SortKey(c.id) for c in op.group_cols]
                )
            out_buckets.append(out_rows)
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(), child.total_rows() * factor
        )
        return DRows(child.kind, out_cols, out_buckets)

    def _exec_window(self, node: PlanNode) -> DRows:
        op: ph.PhysicalWindow = node.op
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        out_cols = list(child.cols) + [c for _f, c in op.funcs]
        out_buckets = []
        for bucket in child.buckets:
            extended = _window_bucket(bucket, index, op.funcs, self._env)
            out_buckets.append(extended)
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            child.total_rows() * self.params.window_factor,
        )
        return DRows(child.kind, out_cols, out_buckets)

    # ------------------------------------------------------------------
    # Sort / Limit / Append
    # ------------------------------------------------------------------
    def _exec_sort(self, node: PlanNode) -> DRows:
        op: ph.PhysicalSort = node.op
        child = self._exec(node.children[0])
        out_buckets = [
            _sort_rows(b, child.cols, op.order.keys) for b in child.buckets
        ]
        n = child.total_rows()
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            n * math.log2(n + 2.0) * self.params.sort_factor,
        )
        return DRows(child.kind, child.cols, out_buckets)

    def _exec_limit(self, node: PlanNode) -> DRows:
        op: ph.PhysicalLimit = node.op
        child = self._exec(node.children[0])
        rows = child.single_copy()
        lo = op.offset
        hi = None if op.limit is None else op.offset + op.limit
        rows = rows[lo:hi]
        self.metrics.charge_master(node, len(rows) * LIMIT_FACTOR)
        return DRows(SINGLETON, child.cols, [rows])

    def _exec_append(self, node: PlanNode) -> DRows:
        op: ph.PhysicalAppend = node.op
        children = [self._exec(c) for c in node.children]
        out_cols = list(op.output_cols)
        kinds = {c.kind for c in children}
        if kinds == {SINGLETON}:
            kind = SINGLETON
            nbuckets = 1
        else:
            kind = SEGMENTED
            nbuckets = self.cluster.segments
        out_buckets: list[list[tuple]] = [[] for _ in range(nbuckets)]
        for child, in_cols in zip(children, op.input_cols):
            positions = _positions(child.cols, in_cols)
            source = (
                [child.single_copy()] if kind == SINGLETON else (
                    child.buckets if child.kind == SEGMENTED
                    else [child.single_copy()] + [[]] * (nbuckets - 1)
                )
            )
            for i, bucket in enumerate(source):
                out_buckets[i].extend(
                    tuple(r[p] for p in positions) for r in bucket
                )
        total = sum(len(b) for b in out_buckets)
        self.metrics.charge_all_segments(
            node, total * APPEND_FACTOR / max(nbuckets, 1)
        )
        return DRows(kind, out_cols, out_buckets)

    # ------------------------------------------------------------------
    # Motions
    # ------------------------------------------------------------------
    def _exec_gather(self, node: PlanNode) -> DRows:
        child = self._exec(node.children[0])
        rows = child.single_copy()
        self.metrics.charge_network(node, len(rows) * child.width())
        self.metrics.rows_moved += len(rows)
        return DRows(SINGLETON, child.cols, [rows])

    def _exec_gather_merge(self, node: PlanNode) -> DRows:
        op: ph.PhysicalGatherMerge = node.op
        child = self._exec(node.children[0])
        rows = child.single_copy()
        rows = _sort_rows(rows, child.cols, op.order.keys)
        self.metrics.charge_network(node, len(rows) * child.width())
        self.metrics.charge_master(node, len(rows) * GATHER_MERGE_FACTOR)
        self.metrics.rows_moved += len(rows)
        return DRows(SINGLETON, child.cols, [rows])

    def _exec_redistribute(self, node: PlanNode) -> DRows:
        op: ph.PhysicalRedistribute = node.op
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        positions = [index[c.id] for c in op.columns]
        rows = child.single_copy()
        buckets = self.cluster.distribute_rows(rows, positions)
        # All segments send and receive concurrently: the wall-clock
        # network time is the per-segment share, not the total traffic.
        self.metrics.charge_network(
            node, len(rows) * child.width() / max(self.cluster.segments, 1)
        )
        self.metrics.rows_moved += len(rows)
        return DRows(SEGMENTED, child.cols, buckets)

    def _exec_broadcast(self, node: PlanNode) -> DRows:
        child = self._exec(node.children[0])
        rows = child.single_copy()
        self.metrics.charge_network(
            node, len(rows) * child.width() * self.cluster.segments
        )
        self.metrics.rows_moved += len(rows) * self.cluster.segments
        return DRows(REPLICATED, child.cols, [rows])

    # ------------------------------------------------------------------
    # CTEs
    # ------------------------------------------------------------------
    def _exec_sequence(self, node: PlanNode) -> DRows:
        result = None
        for child in node.children:
            result = self._exec(child)
        assert result is not None
        return result

    def _exec_cte_producer(self, node: PlanNode) -> DRows:
        op: ph.PhysicalCTEProducer = node.op
        child = self._exec(node.children[0])
        positions = _positions(child.cols, op.columns)
        if positions == list(range(len(child.cols))):
            # Identity projection: share the bucket lists instead of
            # re-tupling every row.
            stored = DRows(child.kind, list(op.columns), child.buckets)
        else:
            stored = DRows(
                child.kind,
                list(op.columns),
                [
                    [tuple(r[p] for p in positions) for r in b]
                    for b in child.buckets
                ],
            )
        self._cte_store[op.cte_id] = stored
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            child.total_rows() * self.params.materialize_factor,
        )
        return stored

    def _exec_cte_consumer(self, node: PlanNode) -> DRows:
        op: ph.PhysicalCTEConsumer = node.op
        stored = self._cte_store.get(op.cte_id)
        if stored is None:
            raise ExecutionError(f"CTE {op.cte_id} was not produced")
        positions = _positions(stored.cols, op.producer_cols)
        if positions == list(range(len(stored.cols))):
            renamed = DRows(stored.kind, list(op.output_cols), stored.buckets)
        else:
            renamed = DRows(
                stored.kind,
                list(op.output_cols),
                [
                    [tuple(r[p] for p in positions) for r in b]
                    for b in stored.buckets
                ],
            )
        self._charge_by_kind(
            node, renamed.kind, renamed.bucket_sizes(),
            renamed.total_rows() * CTE_CONSUMER_FACTOR,
        )
        return renamed

    # ------------------------------------------------------------------
    _HANDLERS = {}


def _agg_init(agg: AggFunc):
    """[accumulator, seen-set or None] slot for one aggregate."""
    seen = set() if agg.distinct else None
    if agg.name == "count":
        return [0, seen]
    if agg.name in ("sum", "avg"):
        return [[None, 0], seen]  # running sum, count
    return [None, seen]  # min / max


def _agg_add(slot, agg: AggFunc, env) -> None:
    value = agg.arg.evaluate(env) if agg.arg is not None else 1
    _agg_add_value(slot, agg, value)


def _agg_add_value(slot, agg: AggFunc, value) -> None:
    """Fold one already-evaluated argument value into an aggregate slot."""
    if agg.name == "count" and agg.arg is None:
        slot[0] += 1
        return
    if value is None:
        return
    if slot[1] is not None:
        if value in slot[1]:
            return
        slot[1].add(value)
    if agg.name == "count":
        slot[0] += 1
    elif agg.name in ("sum", "avg"):
        acc = slot[0]
        acc[0] = value if acc[0] is None else acc[0] + value
        acc[1] += 1
    elif agg.name == "min":
        if slot[0] is None or value < slot[0]:
            slot[0] = value
    elif agg.name == "max":
        if slot[0] is None or value > slot[0]:
            slot[0] = value


def _agg_final(slot, agg: AggFunc):
    if agg.name == "count":
        return slot[0]
    if agg.name == "sum":
        return slot[0][0]
    if agg.name == "avg":
        total, count = slot[0]
        return None if count == 0 or total is None else total / count
    return slot[0]


def _null_free_key(row, positions):
    key = tuple(row[p] for p in positions)
    return None if any(v is None for v in key) else key


def _merge_join_segment(
    o_rows, i_rows, l_pos, r_pos, op, null_pad, combined_index, env_fn
):
    """Two-pointer merge of key-sorted inputs with duplicate grouping.

    Rows with NULL keys never match; for LEFT joins unmatched outer rows
    are NULL-extended.  Inputs arrive sorted by the optimizer's order
    requirements; this re-asserts by sorting on the keys, which is a
    no-op on already-ordered inputs and keeps the operator safe if the
    delivered order carries extra trailing keys.
    """
    from repro.ops.logical import JoinKind

    def sort_key(positions):
        return lambda row: tuple(
            (row[p] is None, row[p]) for p in positions
        )

    o_sorted = sorted(o_rows, key=sort_key(l_pos))
    i_sorted = sorted(i_rows, key=sort_key(r_pos))
    out = []
    i = 0
    n_inner = len(i_sorted)
    j = 0
    while j < len(o_sorted):
        o_row = o_sorted[j]
        o_key = _null_free_key(o_row, l_pos)
        if o_key is None:
            if op.kind is JoinKind.LEFT:
                out.append(o_row + null_pad)
            j += 1
            continue
        # advance the inner cursor past smaller keys
        while i < n_inner:
            i_key = _null_free_key(i_sorted[i], r_pos)
            if i_key is not None and i_key >= o_key:
                break
            i += 1
        # collect the group of equal inner keys
        k = i
        group = []
        while k < n_inner:
            i_key = _null_free_key(i_sorted[k], r_pos)
            if i_key != o_key:
                break
            group.append(i_sorted[k])
            k += 1
        matched = False
        for i_row in group:
            if op.residual is not None:
                env = env_fn(combined_index, o_row + i_row)
                if op.residual.evaluate(env) is not True:
                    continue
            matched = True
            out.append(o_row + i_row)
        if not matched and op.kind is JoinKind.LEFT:
            out.append(o_row + null_pad)
        j += 1
    return out


def _window_bucket(rows, index, funcs, env_fn):
    """Evaluate window functions over one (already sorted) bucket."""
    spec: WindowFunc = funcs[0][0]
    p_pos = [index[c.id] for c in spec.partition_by]
    out = []
    # Group consecutive rows by partition key (input is sorted by it).
    i = 0
    while i < len(rows):
        j = i
        key = tuple(rows[i][p] for p in p_pos)
        while j < len(rows) and tuple(rows[j][p] for p in p_pos) == key:
            j += 1
        partition = rows[i:j]
        extended = _window_partition(partition, index, funcs, env_fn)
        out.extend(extended)
        i = j
    return out


def _window_partition(partition, index, funcs, env_fn):
    spec: WindowFunc = funcs[0][0]
    o_pos = [(index[c.id], asc) for c, asc in spec.order_by]
    results_per_func = []
    for func, _col in funcs:
        results_per_func.append(_window_values(partition, index, func, o_pos, env_fn))
    out = []
    for i, row in enumerate(partition):
        out.append(row + tuple(vals[i] for vals in results_per_func))
    return out


def _window_values(partition, index, func: WindowFunc, o_pos, env_fn):
    n = len(partition)
    if func.name == "row_number":
        return list(range(1, n + 1))
    if func.name in ("rank", "dense_rank"):
        values = []
        rank = 0
        dense = 0
        prev_key = object()
        for i, row in enumerate(partition):
            key = tuple(row[p] for p, _asc in o_pos)
            if key != prev_key:
                rank = i + 1
                dense += 1
                prev_key = key
            values.append(rank if func.name == "rank" else dense)
        return values
    # Aggregate window functions: running when ordered, total otherwise.
    agg = AggFunc(func.name, func.arg)
    if not func.order_by:
        slot = _agg_init(agg)
        for row in partition:
            _agg_add(slot, agg, env_fn(index, row))
        total = _agg_final(slot, agg)
        return [total] * n
    values = []
    slot = _agg_init(agg)
    for row in partition:
        _agg_add(slot, agg, env_fn(index, row))
        values.append(_agg_final(slot, agg))
    return values


Executor._HANDLERS = {
    ph.PhysicalTableScan: Executor._exec_scan,
    ph.PhysicalDynamicTableScan: Executor._exec_scan,
    ph.PhysicalIndexScan: Executor._exec_index_scan,
    ph.PhysicalFilter: Executor._exec_filter,
    ph.PhysicalProject: Executor._exec_project,
    ph.PhysicalHashJoin: Executor._exec_hash_join,
    ph.PhysicalMergeJoin: Executor._exec_merge_join,
    ph.PhysicalNLJoin: Executor._exec_nl_join,
    ph.PhysicalCorrelatedNLJoin: Executor._exec_correlated,
    ph.PhysicalHashAgg: Executor._exec_agg,
    ph.PhysicalStreamAgg: Executor._exec_agg,
    ph.PhysicalWindow: Executor._exec_window,
    ph.PhysicalSort: Executor._exec_sort,
    ph.PhysicalLimit: Executor._exec_limit,
    ph.PhysicalAppend: Executor._exec_append,
    ph.PhysicalGather: Executor._exec_gather,
    ph.PhysicalGatherMerge: Executor._exec_gather_merge,
    ph.PhysicalRedistribute: Executor._exec_redistribute,
    ph.PhysicalBroadcast: Executor._exec_broadcast,
    ph.PhysicalSequence: Executor._exec_sequence,
    ph.PhysicalCTEProducer: Executor._exec_cte_producer,
    ph.PhysicalCTEConsumer: Executor._exec_cte_consumer,
}
