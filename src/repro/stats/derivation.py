"""Statistics derivation on the compact Memo.

Implements the mechanism of Section 4.1 (step 2) and Figure 5: to derive
statistics for a target group, pick the group expression with the highest
*promise* of delivering reliable statistics (an InnerJoin with fewer join
conditions is more promising than an equivalent one with more, because
estimation errors propagate and amplify), recursively derive child group
statistics top-down, then combine them bottom-up into a statistics object
attached to the group.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.catalog.statistics import ColumnStats
from repro.catalog.schema import Table
from repro.config import OptimizerConfig
from repro.errors import OptimizerError
from repro.gpos.memory import STATS_BYTES, STATS_COLUMN_BYTES
from repro.memo.context import StatsObject
from repro.memo.memo import Group, GroupExpression, Memo
from repro.ops.logical import (
    AggStage,
    ApplyKind,
    JoinKind,
    LogicalApply,
    LogicalCTEAnchor,
    LogicalCTEConsumer,
    LogicalGbAgg,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalSelect,
    LogicalUnionAll,
    LogicalWindow,
)
from repro.ops.scalar import ColRefExpr, Comparison, conjuncts, make_conj
from repro.stats.selectivity import (
    apply_predicate,
    estimate_selectivity,
    predicate_confidence,
)

#: Confidence damping factors (Section 4.1's open problem: "computing a
#: confidence score for cardinality estimation ... aggregate confidence
#: scores across all nodes of a given expression").
CONF_NO_STATS = 0.3
CONF_HISTOGRAM_JOIN = 0.95
CONF_NDV_JOIN = 0.8
CONF_APPLY = 0.4
CONF_GROUPING = 0.85


def promise(gexpr: GroupExpression) -> float:
    """Statistics promise: lower is better (picked first).

    Join expressions are penalized per join-condition conjunct; Apply
    expressions (pre-decorrelation shapes) are least promising.
    """
    op = gexpr.op
    if isinstance(op, LogicalApply):
        return 1000.0
    if isinstance(op, LogicalJoin):
        return float(len(conjuncts(op.condition)))
    return 0.0


class StatsDeriver:
    """Derives and caches statistics objects for Memo groups."""

    def __init__(
        self,
        memo: Memo,
        config: OptimizerConfig,
        table_stats: Callable[[str], Optional["TableStats"]],
        cte_stats: Optional[dict[int, tuple[StatsObject, tuple]]] = None,
        faults=None,
        feedback=None,
    ):
        self.memo = memo
        self.config = config
        self.table_stats = table_stats
        #: cte_id -> (producer StatsObject, producer output ColRefs)
        self.cte_stats = cte_stats if cte_stats is not None else {}
        self._in_progress: set[int] = set()
        #: Fault-injection harness (repro.service.faults); fires the
        #: ``stats_derive`` site once per actual group derivation.
        self.faults = faults
        #: Cardinality feedback store (repro.feedback.FeedbackStore) or
        #: None; when set, derived row counts are blended with observed
        #: actuals for matching logical shapes.  None leaves derivation
        #: bit-identical to a build without the feedback subsystem.
        self.feedback = feedback
        #: group id -> logical shape, memoized for this derivation session.
        self._shape_cache: dict[int, tuple] = {}
        #: Feedback accounting (deterministic): lookups that found a
        #: confident correction, and corrections that changed an estimate.
        self.feedback_hits = 0
        self.corrections_applied = 0
        #: Cache accounting: ``cache_hits`` counts derive() calls answered
        #: from ``group.stats`` without recomputation, ``cache_misses``
        #: the actual (expensive) derivations.  Both are deterministic.
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    def derive(self, group_id: int) -> StatsObject:
        group = self.memo.group(group_id)
        if group.stats is not None:
            self.cache_hits += 1
            return group.stats
        if self.faults is not None:
            self.faults.fire("stats_derive", group=group.id)
        if group.id in self._in_progress:
            # Defensive: recursive CTE-like cycle; return a guess.
            return StatsObject(row_count=1000.0)
        self._in_progress.add(group.id)
        self.cache_misses += 1
        try:
            gexpr = self._most_promising(group)
            child_stats = [self.derive(c) for c in gexpr.child_groups]
            stats = self._combine(gexpr, child_stats)
            if self.feedback is not None:
                stats = self._apply_feedback(group.id, stats)
            group.stats = stats
            self.memo.tracker.charge(
                "stats",
                STATS_BYTES + STATS_COLUMN_BYTES * len(stats.col_stats),
            )
            return stats
        finally:
            self._in_progress.discard(group.id)

    def group_shape(self, group_id: int) -> tuple:
        """The feedback shape of a group, memoized for this session."""
        from repro.feedback import group_shape

        return group_shape(self.memo, group_id, self._shape_cache)

    def _apply_feedback(self, group_id: int, stats: StatsObject) -> StatsObject:
        """Blend an observed cardinality into a freshly derived estimate.

        The blend (:meth:`repro.feedback.Correction.corrected_rows`) is
        confidence-weighted; column stats are scaled along when the
        correction shrinks the estimate (``scaled`` clamps selectivity to
        [0, 1], so growth keeps columns and replaces only the row count).
        """
        corr = self.feedback.correction(self.group_shape(group_id))
        if corr is None:
            return stats
        self.feedback_hits += 1
        corrected = corr.corrected_rows(stats.row_count)
        if corrected == stats.row_count:
            return stats
        self.corrections_applied += 1
        if corrected < stats.row_count and stats.row_count > 0:
            out = stats.scaled(corrected / stats.row_count)
        else:
            out = StatsObject(
                row_count=corrected,
                col_stats=dict(stats.col_stats),
                confidence=stats.confidence,
            )
        # Observation-backed estimates are *more* trustworthy than the
        # derivation chain that produced them.
        out.confidence = min(max(stats.confidence, corr.confidence), 1.0)
        return out

    def _most_promising(self, group: Group) -> GroupExpression:
        logical = group.logical_gexprs()
        if not logical:
            raise OptimizerError(f"group {group.id} has no logical expression")
        return min(logical, key=promise)

    # ------------------------------------------------------------------
    def _combine(
        self, gexpr: GroupExpression, child_stats: list[StatsObject]
    ) -> StatsObject:
        op = gexpr.op
        if isinstance(op, LogicalGet):
            return self._get_stats(op)
        if isinstance(op, LogicalSelect):
            out = apply_predicate(child_stats[0], op.predicate)
            out.damp_confidence(
                predicate_confidence(op.predicate, child_stats[0])
            )
            return out
        if isinstance(op, LogicalProject):
            return self._project_stats(op, child_stats[0])
        if isinstance(op, LogicalJoin):
            return self._join_stats(op, child_stats[0], child_stats[1])
        if isinstance(op, LogicalApply):
            return self._apply_stats(op, gexpr, child_stats)
        if isinstance(op, LogicalGbAgg):
            return self._agg_stats(op, child_stats[0])
        if isinstance(op, LogicalLimit):
            out = child_stats[0].scaled(1.0)
            if op.limit is not None:
                out.row_count = min(out.row_count, float(op.limit))
            return out
        if isinstance(op, LogicalUnionAll):
            return self._union_stats(op, child_stats)
        if isinstance(op, LogicalWindow):
            out = child_stats[0].scaled(1.0)
            for func, col in op.funcs:
                out.add_column(col.id, ColumnStats(ndv=out.row_count, width=8))
            return out
        if isinstance(op, LogicalCTEAnchor):
            return child_stats[0]
        if isinstance(op, LogicalCTEConsumer):
            return self._cte_consumer_stats(op)
        raise OptimizerError(f"no stats derivation for {op!r}")

    # ------------------------------------------------------------------
    def _get_stats(self, op: LogicalGet) -> StatsObject:
        table_stats = self.table_stats(op.table.name)
        if table_stats is None:
            # No ANALYZE: default guesses, low confidence.
            stats = StatsObject(row_count=1000.0, confidence=CONF_NO_STATS)
            for ref in op.columns:
                stats.add_column(ref.id, ColumnStats(ndv=100.0, width=ref.dtype.width))
            return stats
        fraction = 1.0
        if op.partitions is not None and op.table.partitioning is not None:
            total = op.table.num_partitions()
            fraction = len(op.partitions) / total if total else 1.0
        stats = StatsObject(row_count=table_stats.row_count * fraction)
        for i, ref in enumerate(op.columns):
            col_name = op.table.columns[i].name
            col = table_stats.column(col_name)
            if col is None:
                col = ColumnStats(ndv=100.0, width=ref.dtype.width)
            elif fraction < 1.0:
                col = col.scaled(fraction)
            stats.add_column(ref.id, col)
        return stats

    def _project_stats(self, op: LogicalProject, child: StatsObject) -> StatsObject:
        out = child.scaled(1.0)
        for expr, col in op.projections:
            if isinstance(expr, ColRefExpr):
                src = child.column(expr.ref.id)
                if src is not None:
                    out.add_column(col.id, src)
                    continue
            out.add_column(
                col.id,
                ColumnStats(ndv=max(out.row_count / 2.0, 1.0), width=8),
            )
        return out

    def _join_stats(
        self, op: LogicalJoin, left: StatsObject, right: StatsObject
    ) -> StatsObject:
        equi, residual = self._split_condition(op, left, right)
        cross = left.row_count * right.row_count
        #: (left col, right col) -> the pair's aligned histogram slices,
        #: cut once and shared by the cardinality and the joined histogram.
        slices: dict[tuple[int, int], list] = {}
        if equi:
            card = self._equi_join_card(equi, left, right, slices)
        else:
            card = cross
        for conj in residual:
            merged = self._merged(left, right)
            card *= estimate_selectivity(conj, merged)
        inner_card = max(card, 0.0)
        if op.kind is JoinKind.INNER:
            row_count = inner_card
        elif op.kind is JoinKind.LEFT:
            row_count = max(inner_card, left.row_count)
        elif op.kind is JoinKind.SEMI:
            row_count = left.row_count * self._match_fraction(equi, left, right)
        else:  # ANTI
            row_count = left.row_count * (
                1.0 - self._match_fraction(equi, left, right)
            )
        confidence = left.confidence * right.confidence
        for l_id, r_id in equi:
            lh, rh = left.column(l_id), right.column(r_id)
            backed = (
                lh is not None and rh is not None
                and lh.histogram is not None and rh.histogram is not None
            )
            confidence *= CONF_HISTOGRAM_JOIN if backed else CONF_NDV_JOIN
        if residual:
            confidence *= predicate_confidence(
                make_conj(residual), self._merged(left, right)
            )
        out = StatsObject(row_count=max(row_count, 0.0), confidence=confidence)
        scale_l = min(row_count / left.row_count, 1.0) if left.row_count else 0.0
        scale_r = min(row_count / right.row_count, 1.0) if right.row_count else 0.0
        for cid, cs in left.col_stats.items():
            out.add_column(cid, cs.scaled(scale_l))
        if not op.kind.output_is_left_only():
            for cid, cs in right.col_stats.items():
                out.add_column(cid, cs.scaled(scale_r))
        # Sharpen the join columns with the joined histogram.
        for l_id, r_id in equi:
            lh = left.column(l_id)
            rh = right.column(r_id)
            if lh and rh and lh.histogram and rh.histogram:
                joined = lh.histogram.join_histogram(
                    rh.histogram, slices.get((l_id, r_id))
                )
                joined_stats = ColumnStats(
                    ndv=max(joined.ndv(), 1.0), histogram=joined, width=lh.width
                )
                out.add_column(l_id, joined_stats)
                if not op.kind.output_is_left_only():
                    out.add_column(r_id, joined_stats)
        return out

    def _split_condition(self, op: LogicalJoin, left, right):
        """Split the join condition into equi column pairs and residual."""
        equi: list[tuple[int, int]] = []
        residual = []
        for conj in conjuncts(op.condition):
            if (
                isinstance(conj, Comparison)
                and conj.op == "="
                and isinstance(conj.left, ColRefExpr)
                and isinstance(conj.right, ColRefExpr)
            ):
                a, b = conj.left.ref.id, conj.right.ref.id
                if a in left.col_stats and b in right.col_stats:
                    equi.append((a, b))
                    continue
                if b in left.col_stats and a in right.col_stats:
                    equi.append((b, a))
                    continue
            residual.append(conj)
        return equi, residual

    def _equi_join_card(
        self, equi, left: StatsObject, right: StatsObject, slices: dict
    ) -> float:
        """Cardinality of the conjunction of equi-join predicates; the
        histogram alignments it computes are left in ``slices``."""
        cross = left.row_count * right.row_count
        if cross <= 0:
            return 0.0
        combined_sel = 1.0
        for i, (l_id, r_id) in enumerate(equi):
            lh = left.column(l_id)
            rh = right.column(r_id)
            if lh and rh and lh.histogram and rh.histogram and \
                    lh.histogram.buckets and rh.histogram.buckets:
                aligned = slices[(l_id, r_id)] = lh.histogram.join_slices(
                    rh.histogram
                )
                card = lh.histogram.join_cardinality(rh.histogram, aligned)
                sel = card / cross
            else:
                ndv_l = lh.ndv if lh else 100.0
                ndv_r = rh.ndv if rh else 100.0
                sel = 1.0 / max(ndv_l, ndv_r, 1.0)
            if i == 0:
                combined_sel = sel
            else:
                # Additional equi predicates: damped AND (exponential
                # backoff guards against independence over-correction).
                combined_sel *= math.sqrt(sel)
        return cross * combined_sel

    def _match_fraction(self, equi, left: StatsObject, right: StatsObject) -> float:
        """Fraction of left rows with at least one right match (semi join)."""
        if not equi:
            return 0.75  # conservative default for non-equi semi joins
        l_id, r_id = equi[0]
        lh = left.column(l_id)
        rh = right.column(r_id)
        ndv_l = lh.ndv if lh else 100.0
        ndv_r = rh.ndv if rh else 100.0
        return min(1.0, ndv_r / max(ndv_l, 1.0))

    def _merged(self, left: StatsObject, right: StatsObject) -> StatsObject:
        merged = StatsObject(row_count=max(left.row_count, right.row_count))
        merged.col_stats.update(left.col_stats)
        merged.col_stats.update(right.col_stats)
        return merged

    def _apply_stats(
        self, op: LogicalApply, gexpr: GroupExpression, child_stats
    ) -> StatsObject:
        outer, inner = child_stats
        if op.kind is ApplyKind.SCALAR:
            out = StatsObject(
                row_count=outer.row_count,
                confidence=outer.confidence * inner.confidence * CONF_APPLY,
            )
            out.col_stats.update(outer.col_stats)
            for cid, cs in inner.col_stats.items():
                out.add_column(cid, cs)
            return out
        fraction = 0.5  # correlated semi/anti default
        if op.kind is ApplyKind.SEMI:
            row_count = outer.row_count * fraction
        else:
            row_count = outer.row_count * (1.0 - fraction)
        out = StatsObject(
            row_count=row_count,
            confidence=outer.confidence * inner.confidence * CONF_APPLY,
        )
        scale = fraction if op.kind is ApplyKind.SEMI else 1.0 - fraction
        for cid, cs in outer.col_stats.items():
            out.add_column(cid, cs.scaled(scale))
        return out

    def _agg_stats(self, op: LogicalGbAgg, child: StatsObject) -> StatsObject:
        if not op.group_cols:
            groups = 1.0
        else:
            groups = 1.0
            for col in op.group_cols:
                cs = child.column(col.id)
                groups *= cs.ndv if cs is not None else 100.0
            groups = min(groups, child.row_count)
        if op.stage is AggStage.PARTIAL:
            # Each segment produces up to `groups` rows.
            groups = min(groups * self.config.segments, child.row_count)
        confidence = child.confidence * (
            CONF_GROUPING if op.group_cols else 1.0
        )
        out = StatsObject(row_count=max(groups, 1.0), confidence=confidence)
        for col in op.group_cols:
            cs = child.column(col.id)
            if cs is not None:
                out.add_column(col.id, cs)
        for agg, col in op.aggs:
            out.add_column(col.id, ColumnStats(ndv=out.row_count, width=8))
        return out

    def _union_stats(self, op: LogicalUnionAll, child_stats) -> StatsObject:
        total = sum(s.row_count for s in child_stats)
        out = StatsObject(
            row_count=total,
            confidence=min(s.confidence for s in child_stats),
        )
        for pos, out_col in enumerate(op.output_cols):
            merged: Optional[ColumnStats] = None
            for child, cols in zip(child_stats, op.input_cols):
                cs = child.column(cols[pos].id)
                if cs is None:
                    continue
                if merged is None:
                    merged = cs
                elif merged.histogram and cs.histogram:
                    merged = ColumnStats(
                        ndv=merged.ndv + cs.ndv,
                        histogram=merged.histogram.union_all(cs.histogram),
                        width=merged.width,
                    )
                else:
                    merged = ColumnStats(ndv=merged.ndv + cs.ndv, width=merged.width)
            if merged is not None:
                out.add_column(out_col.id, merged)
        return out

    def _cte_consumer_stats(self, op: LogicalCTEConsumer) -> StatsObject:
        entry = self.cte_stats.get(op.cte_id)
        if entry is None:
            stats = StatsObject(row_count=1000.0)
            for col in op.output_cols:
                stats.add_column(col.id, ColumnStats(ndv=100.0, width=8))
            return stats
        producer_stats, producer_cols = entry
        out = StatsObject(
            row_count=producer_stats.row_count,
            confidence=producer_stats.confidence,
        )
        for out_col, prod_col in zip(op.output_cols, producer_cols):
            cs = producer_stats.column(prod_col.id)
            if cs is not None:
                out.add_column(out_col.id, cs)
        return out
