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

Work is charged per segment on the :class:`ExecutionMetrics` clock by
calling the cost model's own terms (:func:`repro.cost.model.work_terms`)
on the rows each node actually read — which is what makes the TAQO
estimated-vs-actual correlation experiment (Section 6.2) meaningful.
Each charge lands on the plan node that incurs it
(``ExecutionMetrics.ledger``); a chain charges its nodes from their row
counts through the helpers here (``_work``, ``_charge_by_kind``,
``_charge_hash_side``, ``_check_memory``, ``_node_done``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from repro.catalog.schema import DistributionPolicy
from repro.config import ExecutionMode
from repro.cost.model import spill_work, work_terms
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
from repro.ops.scalar import AGG_NAMES, ColRef, WindowFunc
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


def _work(op, *rows) -> float:
    """``op``'s work at the rows it actually read: the cost model's
    :func:`~repro.cost.model.work_terms`, added left to right."""
    return sum(work_terms(op, rows))


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
        time_limit_seconds: Optional[float] = None,
        per_op_startup_units: float = 0.0,
        materialize_output_factor: float = 0.0,
        tracer=None,
        execution_mode: Optional[ExecutionMode] = None,
        morsel_pool=None,
    ):
        self.cluster = cluster
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
        overheads, its rows and loops in the ledger, the
        ``operator_executed`` event and the budget check."""
        metrics = self.metrics
        if self.per_op_startup_units:
            metrics.charge_all_segments(node, self.per_op_startup_units)
        rows = sum(sizes)
        if self.materialize_output_factor:
            self._charge_by_kind(
                node, kind, sizes, rows * self.materialize_output_factor
            )
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
                node, spill_work(overflow / max(width, 1))
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
            node, out.kind, out.bucket_sizes(), _work(op, n_rows)
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
            _work(op, len(fetched)),
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
        self._charge_at(node, seg, _work(node.op, probes, builds))

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
            self._charge_at(node, seg, _work(op, len(o_rows), len(i_rows)))
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
            self._charge_at(node, seg, _work(op, pairs))
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
                    # The result is memoized for real-time sanity, but the
                    # clock is charged as if the subplan really re-ran (the
                    # legacy Planner really re-executes).
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
                    if op.kind is ApplyKind.SCALAR:
                        # Attach the inner columns by id: the inner plan
                        # may carry more (a split avg's sum and count).
                        rows = list(_projected(
                            rows, _positions(inner_result.cols, inner_cols),
                            len(inner_result.cols),
                        ))
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
        # Looked up per call: repro.engine.fused imports this module.
        from repro.engine.fused import window_fold

        folds = [
            window_fold(func, index) if func.name in AGG_NAMES else None
            for func, _c in op.funcs
        ]
        out_buckets = [
            _window_bucket(bucket, index, op.funcs, folds, params)
            for bucket in child.buckets
        ]
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            _work(op, child.total_rows()),
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
        self._charge_by_kind(
            node, child.kind, child.bucket_sizes(),
            _work(op, child.total_rows()),
        )
        return DRows(child.kind, child.cols, out_buckets)

    def _exec_limit(self, node: PlanNode) -> DRows:
        op: ph.PhysicalLimit = node.op
        child = self._exec(node.children[0])
        rows = child.single_copy()
        lo = op.offset
        hi = None if op.limit is None else op.offset + op.limit
        rows = rows[lo:hi]
        self.metrics.charge_master(node, _work(op, len(rows)))
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
            node, _work(op, total) / max(nbuckets, 1)
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
        self.metrics.charge_master(node, _work(op, len(rows)))
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
            _work(op, child.total_rows()),
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
            _work(op, renamed.total_rows()),
        )
        return renamed

    # ------------------------------------------------------------------
    _HANDLERS = {}


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


def _window_bucket(rows, index, funcs, folds, params):
    """Evaluate window functions over one bucket, sorted by PARTITION BY
    and then ORDER BY key."""
    spec: WindowFunc = funcs[0][0]
    p_pos = [index[c.id] for c in spec.partition_by]
    o_pos = [index[c.id] for c, _asc in spec.order_by]
    out = []
    for _key, partition in groupby(rows, key=lambda r: tuple(r[p] for p in p_pos)):
        partition = list(partition)
        # Rows with equal ORDER BY keys (NULL keys included) are peers.
        groups = [
            list(peers) for _key, peers in
            groupby(partition, key=lambda r: tuple(r[p] for p in o_pos))
        ]
        columns = [
            _window_values(groups, func, fold, params)
            for (func, _col), fold in zip(funcs, folds)
        ]
        out.extend(row + values for row, values in zip(partition, zip(*columns)))
    return out


def _window_values(groups, func: WindowFunc, fold, params):
    """One window function's value per row of a sorted partition, split
    into its peer groups.  Peers share a rank, and an aggregate's frame
    is SQL's default RANGE frame, which ends after the last peer (the
    whole partition without ORDER BY): ``fold``
    (:func:`repro.engine.fused.window_fold`) gives its value per group."""
    if func.name == "row_number":
        return list(range(1, sum(map(len, groups)) + 1))
    if func.name == "rank":
        per_group = accumulate(map(len, groups), initial=1)
    elif func.name == "dense_rank":
        per_group = range(1, len(groups) + 1)
    else:
        per_group = fold(groups, params)
    values = []
    for value, peers in zip(per_group, groups):
        values.extend([value] * len(peers))
    return values


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
