"""The executor: runs physical plans on the simulated cluster.

A plan is cut into operator chains (:mod:`repro.engine.pipeline`), and
every chain — filters, projects, hash-join probes, an aggregation sink —
runs as generated code through :func:`repro.engine.fused.run_chain`.
The execution mode only sets how long a chain may be: ``FUSED`` as long
as rows stream, ``ROW`` one operator.  Everything that is not a chain
member (scans, sorts, limits, windows, motions, NL / merge / correlated
joins, CTEs, sequences, appends) runs on the one handler table
:attr:`Executor._HANDLERS`, in both modes.

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
incurs it (``ExecutionMetrics.ledger``); a chain charges its nodes from
their row counts through the helpers here (``_charge_by_kind``,
``_charge_hash_side``, ``_check_memory``, ``_node_done``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

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
from repro.engine.emit import (
    Emitter,
    Layout,
    _layout_key,
    _row_code,
    compiled_row,
    load_generated,
    row_cached,
)
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

    def copy_parts(self) -> list[list[tuple]]:
        """The buckets that together hold one copy of the rows."""
        return self.buckets if self.kind == SEGMENTED else self.buckets[:1]

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
        return _row_width(self.cols)


def _row_width(cols: Sequence[ColRef]) -> int:
    """Bytes per row, as the memory check and the network charge see it."""
    return sum(c.dtype.width for c in cols) or 8


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


def _projected(
    rows: Iterable[tuple], positions: list[int], width: int
) -> Iterable[tuple]:
    """``rows`` narrowed to ``positions`` with no Python call per row.
    Identity positions hand ``rows`` back as they are, so a caller that
    keeps the result copies it first."""
    if positions == list(range(width)):
        return rows
    if len(positions) > 1:
        return map(itemgetter(*positions), rows)
    if positions:
        p = positions[0]
        return [(r[p],) for r in rows]
    return [() for _ in rows]


def _projected_buckets(
    buckets: list[list[tuple]], positions: list[int], width: int
) -> list[list[tuple]]:
    """Every bucket narrowed to ``positions``; identity positions share
    the bucket lists instead of re-tupling every row."""
    if positions == list(range(width)):
        return buckets
    return [list(_projected(b, positions, width)) for b in buckets]


def _sort_rows(
    rows: list[tuple], cols: Sequence[ColRef], keys: Sequence[SortKey]
) -> list[tuple]:
    """Stable sort, least significant key first.  Per key, NULL rows go
    last ascending and first descending, each side in input order; the
    rest sort on ``itemgetter(pos)``."""
    index = {c.id: i for i, c in enumerate(cols)}
    out = list(rows)
    for key in reversed(keys):
        pos = index[key.col_id]
        nulls = []
        if None in map(itemgetter(pos), out):
            nulls = [r for r in out if r[pos] is None]
            out = [r for r in out if r[pos] is not None]
        out.sort(key=itemgetter(pos), reverse=not key.ascending)
        if nulls:
            out = out + nulls if key.ascending else nulls + out
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
        #: How plans execute: ``FUSED`` compiles breaker-free operator
        #: chains into one stage each, ``ROW`` every operator into a
        #: stage of its own.  Rows, ExecutionMetrics and EXPLAIN ANALYZE
        #: are float-identical in both modes.
        self.execution_mode = mode
        self._fuse = mode is ExecutionMode.FUSED
        self._chains: dict[int, Any] = {}
        self.tracer = tracer or NULL_TRACER
        #: Morsel-driven parallelism (fused streaming phase only): the
        #: caller's pool (repro.engine.parallel.make_pool), which the
        #: caller drains; None runs serial.
        self._morsel_pool = morsel_pool if self._fuse else None
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
        # Looked up per call: repro.engine.fused imports this module.
        from repro.engine.fused import fused_chains

        self._chains = fused_chains(plan, self._fuse)
        if self.tracer.enabled:
            self.tracer.record(
                "pipeline_segmented",
                chains=len(self._chains),
                fused_nodes=sum(1 + len(c.ops) for c in self._chains.values()),
            )
        self._wanted_selectors = {
            node.op.dpe.selector_col_id
            for node in plan.walk()
            if isinstance(node.op, ph.PhysicalDynamicTableScan)
        }
        with self.tracer.span("execute"):
            result = self._exec(plan)
        self.metrics.close(plan)
        cols = result.cols
        # A fresh list always: the buckets may be the scan cache's.
        rows = chain.from_iterable(result.copy_parts())
        if output_cols:
            rows = _projected(rows, _positions(cols, output_cols), len(cols))
            cols = list(output_cols)
        rows = list(rows)
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
        chain = self._chains.get(id(node))
        if chain is not None:
            from repro.engine.fused import run_chain

            result = run_chain(self, chain)
        else:
            handler = self._HANDLERS.get(type(node.op))
            if handler is None:
                raise ExecutionError(f"no executor for operator {node.op!r}")
            result = handler(self, node)
        self._node_done(node, result.kind, result.bucket_sizes())
        return result

    def _node_done(self, node: PlanNode, kind: str, sizes: list[int]) -> None:
        """Close one executed node, chain member or not: its stage
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
        # The operator's rendering is derived state of an immutable
        # node: made once, kept beside the chain caches, never pickled.
        label = node.__dict__.get("_op_repr")
        if label is None:
            label = node._op_repr = repr(node.op)
        metrics.cardinalities.append((label, node.rows_estimate, rows))
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

    @staticmethod
    def _index(cols: Sequence[ColRef]) -> dict[int, int]:
        return {c.id: i for i, c in enumerate(cols)}

    def _check_memory(
        self, node: PlanNode, n_rows: int, width: int, op_name: str
    ) -> None:
        """Charge (or refuse) holding ``n_rows`` rows of ``width`` bytes."""
        needed = n_rows * width
        if needed <= self.cluster.memory_limit_bytes:
            return
        if self.cluster.spill_enabled:
            self.metrics.rows_spilled += n_rows
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
        """Table scan served from the cluster's scan cache.

        Distributing a stored table is a pure function of (table,
        partitions, columns, segments) and the table's rows, so it is
        hashed once per cluster and row-data version: a layout cached
        before an insert / truncate is recomputed and replaced.  The
        partition/row counters and the per-segment scan charges are
        still issued per execution, from the cached sizes.
        """
        op = node.op
        parts = self._partition_ids(op)
        self.metrics.partitions_scanned += len(parts)
        key = (
            op.table.name,
            tuple(parts),
            tuple(c.id for c in op.columns),
            self.cluster.segments,
        )
        version = self.cluster.db.data_version(op.table.name)
        hit = self.cluster.scan_cache.get(key)
        if hit is not None and hit[0] != version:
            hit = None
        if self.tracer.enabled:
            self.tracer.record(
                "scan_cache_hit" if hit is not None else "scan_cache_miss",
                table=op.table.name,
                partitions=len(parts),
            )
        if hit is None:
            rows = self.cluster.db.scan(op.table.name, parts)
            hit = self.cluster.scan_cache[key] = (
                version, len(rows), self._distribute(op, rows)
            )
        _, n_rows, out = hit
        self.metrics.rows_scanned += n_rows
        self._charge_by_kind(
            node, out.kind, out.bucket_sizes(), n_rows * self.params.scan_tuple
        )
        return out

    def _exec_index_scan(self, node: PlanNode) -> DRows:
        """Range-fetch, distribute, order and charge an index scan, then
        apply its residual predicate, compiled."""
        op: ph.PhysicalIndexScan = node.op
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
        buckets = [_sort_rows(b, result.cols, [key]) for b in result.buckets]
        self._charge_by_kind(
            node, result.kind, result.bucket_sizes(),
            len(fetched) * self.params.index_tuple,
        )
        if op.residual is not None:
            keep = compiled_row(op.residual, self._index(result.cols))
            params = self._param_env
            buckets = [
                [r for r in b if keep(r, params) is True] for b in buckets
            ]
        return DRows(result.kind, result.cols, buckets)

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

    def _charge_hash_side(
        self, node: PlanNode, seg: int, probes: int, builds: int, width: int
    ) -> None:
        """One hash-join work unit's charges: the build side's memory
        check, then building and probing."""
        self._check_memory(node, builds, width, "HashJoin")
        self._charge_at(
            node, seg,
            builds * self.params.hash_build + probes * self.params.hash_probe,
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
        residual = None if op.residual is None else compiled_row(
            op.residual, self._index(list(outer.cols) + list(inner.cols))
        )
        params = self._param_env
        kind = self._join_output_kind(outer.kind, inner.kind)
        out_buckets: list[list[tuple]] = []
        for seg, o_rows, i_rows in self._join_sides(
            outer.kind, outer.buckets, inner
        ):
            bucket = _merge_join_segment(
                o_rows, i_rows, l_pos, r_pos, op, null_pad, residual, params
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
        n_outer = len(outer.cols)
        index = self._index(list(outer.cols) + list(inner.cols))
        cond = op.condition

        def make():
            return _nl_loop(op, n_outer, index)

        loop, bound = make() if cond is None else row_cached(
            cond, ("nl", op.kind, n_outer) + _layout_key(cond, index), make
        )
        params = self._param_env
        out_buckets = []
        for seg, o_rows, i_rows in self._join_sides(
            outer.kind, outer.buckets, inner
        ):
            bucket = []
            pairs = loop(o_rows, i_rows, params, null_pad, bucket.append, bound)
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
        # A parameter is read from the outer row, else from the binding
        # this plan itself runs under (a nested correlated join).
        sources = [
            (o_index.get(cid), self._param_env.get(cid)) for cid in param_ids
        ]
        for seg_rows in outer.buckets:
            bucket = []
            for o_row in seg_rows:
                key = tuple(
                    value if pos is None else o_row[pos]
                    for pos, value in sources
                )
                if key in cache:
                    rows, work, net = cache[key]
                    if not self.cache_correlated_work:
                        # Charge as if the subplan really re-ran.
                        self.metrics.charge_master(node, work)
                        self.metrics.charge_network(node, net)
                        self.metrics.subplan_executions += 1
                else:
                    saved_env = self._param_env
                    self._param_env = {**saved_env, **dict(zip(param_ids, key))}
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
    # Windows
    # ------------------------------------------------------------------
    def _exec_window(self, node: PlanNode) -> DRows:
        op: ph.PhysicalWindow = node.op
        child = self._exec(node.children[0])
        index = self._index(child.cols)
        out_cols = list(child.cols) + [c for _f, c in op.funcs]
        params = self._param_env
        out_buckets = [
            _window_bucket(bucket, index, op.funcs, params)
            for bucket in child.buckets
        ]
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
            # A segmented child keeps its buckets; one copy lands in
            # bucket 0 (the only one when every child is a singleton).
            for i, bucket in enumerate(child.copy_parts()):
                out_buckets[i].extend(
                    _projected(bucket, positions, len(child.cols))
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
        rows = _sort_rows(
            chain.from_iterable(child.copy_parts()), child.cols, op.order.keys
        )
        self.metrics.charge_network(node, len(rows) * child.width())
        self.metrics.charge_master(node, len(rows) * GATHER_MERGE_FACTOR)
        self.metrics.rows_moved += len(rows)
        return DRows(SINGLETON, child.cols, [rows])

    def _exec_redistribute(self, node: PlanNode) -> DRows:
        op: ph.PhysicalRedistribute = node.op
        child = self._exec(node.children[0])
        positions = _positions(child.cols, op.columns)
        parts = child.copy_parts()
        buckets = self.cluster.distribute_rows(
            chain.from_iterable(parts), positions
        )
        n = sum(map(len, parts))
        # All segments send and receive concurrently: the wall-clock
        # network time is the per-segment share, not the total traffic.
        self.metrics.charge_network(
            node, n * child.width() / max(self.cluster.segments, 1)
        )
        self.metrics.rows_moved += n
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
        buckets = _projected_buckets(child.buckets, positions, len(child.cols))
        stored = DRows(child.kind, list(op.columns), buckets)
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
        buckets = _projected_buckets(stored.buckets, positions, len(stored.cols))
        renamed = DRows(stored.kind, list(op.output_cols), buckets)
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


def _nl_loop(op, n_outer: int, index):
    """The generated pair loop of one nested-loops join:
    ``f(outer rows, inner rows, params, null pad, append, bound) ->
    pairs probed``.  The condition is inlined and reads both rows in
    place, so an output row is built only for a pair that passed."""
    em = Emitter()
    jk = op.kind
    inner = jk is JoinKind.INNER
    lines = ["    _n = 0", "    for _row in _o:"]
    if not inner:
        lines.append("        _hit = False")
    lines += ["        for _cand in _i:", "            _n += 1"]
    if op.condition is not None:
        cond = em.truth(
            op.condition, Layout(index, (("_row", n_outer), ("_cand", None)))
        )
        lines += [f"            if not {cond}:", "                continue"]
    if inner:
        lines.append("            _append(_row + _cand)")
    elif jk is JoinKind.LEFT:
        lines += [
            "            _hit = True",
            "            _append(_row + _cand)",
            "        if not _hit:",
            "            _append(_row + _pad)",
        ]
    else:  # SEMI / ANTI stop at the first match
        lines += [
            "            _hit = True",
            "            break",
            "        if _hit:" if jk is JoinKind.SEMI else "        if not _hit:",
            "            _append(_row)",
        ]
    src = "\n".join(
        ["def _nl(_o, _i, _params, _pad, _append, _B):"]
        + em.unpack() + lines + ["    return _n", ""]
    )
    fn = load_generated(src, "<nl-join>", _row_code)["_nl"]
    return fn, tuple(em.bound)


def _merge_join_segment(
    o_rows, i_rows, l_pos, r_pos, op, null_pad, residual, params
):
    """Two-pointer merge of key-sorted inputs with duplicate grouping.

    Rows with NULL keys never match; for LEFT joins unmatched outer rows
    are NULL-extended.  ``residual`` is ``op.residual`` compiled over
    the joined row (:func:`compiled_row`), or ``None``.  Inputs arrive
    sorted by the optimizer's order requirements; this re-asserts by
    sorting on the keys, which is a no-op on already-ordered inputs and
    keeps the operator safe if the delivered order carries extra
    trailing keys.
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
            row = o_row + i_row
            if residual is not None and residual(row, params) is not True:
                continue
            matched = True
            out.append(row)
        if not matched and op.kind is JoinKind.LEFT:
            out.append(o_row + null_pad)
        j += 1
    return out


def _window_bucket(rows, index, funcs, params):
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
        extended = _window_partition(partition, index, funcs, params)
        out.extend(extended)
        i = j
    return out


def _window_partition(partition, index, funcs, params):
    spec: WindowFunc = funcs[0][0]
    o_pos = [(index[c.id], asc) for c, asc in spec.order_by]
    results_per_func = []
    for func, _col in funcs:
        results_per_func.append(_window_values(partition, index, func, o_pos, params))
    out = []
    for i, row in enumerate(partition):
        out.append(row + tuple(vals[i] for vals in results_per_func))
    return out


def _window_values(partition, index, func: WindowFunc, o_pos, params):
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
    arg = None if func.arg is None else compiled_row(func.arg, index)
    slot = _agg_init(agg)
    values = []
    for row in partition:
        _agg_add_value(slot, agg, 1 if arg is None else arg(row, params))
        if func.order_by:
            values.append(_agg_final(slot, agg))
    return values if func.order_by else [_agg_final(slot, agg)] * n


Executor._HANDLERS = {
    ph.PhysicalTableScan: Executor._exec_scan,
    ph.PhysicalDynamicTableScan: Executor._exec_scan,
    ph.PhysicalIndexScan: Executor._exec_index_scan,
    ph.PhysicalMergeJoin: Executor._exec_merge_join,
    ph.PhysicalNLJoin: Executor._exec_nl_join,
    ph.PhysicalCorrelatedNLJoin: Executor._exec_correlated,
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
