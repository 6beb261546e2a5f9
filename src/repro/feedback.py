"""Feedback-driven re-optimization: cardinality actuals back into stats.

Orca isolates statistics derivation behind metadata providers precisely
so estimates can be improved without touching the search (Section 4,
Section 6.1 — cardinality misestimates dominate bad plans).  This module
closes the loop the ROADMAP names open: per-node actuals collected by
EXPLAIN ANALYZE (:class:`repro.telemetry.analyze.PlanAnalysis`) are
ingested into a :class:`FeedbackStore` keyed by the *logical shape* of
each plan subtree, and :class:`repro.stats.derivation.StatsDeriver`
consults the store on the next optimization of a matching logical
sub-expression, blending the observed cardinality into the estimate.

The shape key is semantic, not syntactic: inner-join trees flatten into
(base-relation multiset, applied-predicate set), so an intermediate join
``A ⋈ C`` observed under one join order matches the equivalent Memo
group the next search creates under *any* join order.  Column ids are
session-local, so shapes normalize ``ColRef`` ids to column names —
stable across sessions for the same query text.

Determinism contract: with ``enable_cardinality_feedback=False``
(the default) nothing in this module runs and the search is bit-identical
to a build without it.  With it on, corrections are a pure function of
the ingested history — seeded two-pass runs yield identical corrections
and identical plans.  Corrections only ever change *estimates*; executed
rows are unaffected by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.memo.memo import Memo
from repro.ops.logical import (
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
from repro.ops.scalar import ColRef, ColRefExpr, ScalarExpr, conjuncts
from repro.stats.derivation import promise
from repro.telemetry import families
from repro.trace import NULL_TRACER

#: Physical operators whose ``rows_out`` does not equal the logical
#: cardinality of their group (Broadcast replicates every row to every
#: segment), so their actuals must not be ingested.
_SKIP_OPS = frozenset({"Broadcast"})


# ----------------------------------------------------------------------
# Scalar-expression normalization (session-stable predicate keys)
# ----------------------------------------------------------------------

def _collect_colref_names(obj, names: dict[int, str]) -> None:
    """Collect ``ColRef`` id -> name over a scalar expression tree."""
    if isinstance(obj, ColRef):
        names[obj.id] = obj.name
        return
    if isinstance(obj, ColRefExpr):
        names[obj.ref.id] = obj.ref.name
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            _collect_colref_names(item, names)
        return
    if isinstance(obj, ScalarExpr):
        for value in vars(obj).values():
            _collect_colref_names(value, names)


def _rename_cols(key, names: dict[int, str]):
    """Rewrite every ``("col", id)`` leaf of a key tuple to the column's
    display name, making the key stable across ColumnFactory sessions."""
    if isinstance(key, tuple):
        if len(key) == 2 and key[0] == "col" and isinstance(key[1], int):
            return ("col", names.get(key[1], key[1]))
        return tuple(_rename_cols(item, names) for item in key)
    return key


#: Comparison operators for which ``x op y`` and ``y op x`` are the same
#: predicate, so their operand order must not leak into the shape key
#: (``ON t1.a = t2.a`` vs ``ON t2.a = t1.a`` across join orders).
_SYMMETRIC_CMPS = frozenset({"=", "<>", "!="})


def _canonicalize(key):
    if not isinstance(key, tuple):
        return key
    key = tuple(_canonicalize(item) for item in key)
    if (
        len(key) == 4
        and key[0] == "cmp"
        and key[1] in _SYMMETRIC_CMPS
        and repr(key[3]) < repr(key[2])
    ):
        return (key[0], key[1], key[3], key[2])
    return key


def normalized_scalar_key(expr: ScalarExpr) -> tuple:
    """A session-stable fingerprint of a scalar expression.

    ``expr.key()`` but with ColRef *ids* (fresh per optimization session)
    replaced by ColRef *names* (derived from the schema / aliases, so
    identical for the same query text in a later session), and symmetric
    comparisons put into a canonical operand order.  Literal values stay
    in the key: feedback is per parameter binding.
    """
    names: dict[int, str] = {}
    _collect_colref_names(expr, names)
    return _canonicalize(_rename_cols(tuple(expr.key()), names))


# ----------------------------------------------------------------------
# Logical shapes of Memo groups
# ----------------------------------------------------------------------

def _pred_set(condition: Optional[ScalarExpr]) -> frozenset:
    if condition is None:
        return frozenset()
    return frozenset(normalized_scalar_key(c) for c in conjuncts(condition))


def _table_sort_key(entry: tuple) -> tuple:
    # ("t", table_name, partitions-or-None): sortable without comparing
    # None against tuples.
    return (entry[1], repr(entry[2]))


def group_shape(
    memo: Memo, group_id: int, cache: Optional[dict[int, tuple]] = None
) -> tuple:
    """The logical shape of a Memo group, stable across sessions.

    Computed over the group's most statistics-promising logical member
    (the same pick :class:`~repro.stats.derivation.StatsDeriver` makes),
    with inner-join trees flattened into a (relation multiset, predicate
    set) pair so join-order-equivalent groups share a shape.
    """
    if cache is None:
        cache = {}
    return _group_shape(memo, group_id, cache, set())


def _group_shape(
    memo: Memo, group_id: int, cache: dict, in_progress: set
) -> tuple:
    gid = memo.find(group_id)
    cached = cache.get(gid)
    if cached is not None:
        return cached
    if gid in in_progress:
        return ("cycle", gid)
    in_progress.add(gid)
    try:
        group = memo.group(gid)
        logical = group.logical_gexprs()
        if not logical:
            shape = ("opaque", gid)
        else:
            gexpr = min(logical, key=promise)
            children = [
                _group_shape(memo, child, cache, in_progress)
                for child in gexpr.child_groups
            ]
            shape = _op_shape(gexpr.op, children)
        cache[gid] = shape
        return shape
    finally:
        in_progress.discard(gid)


def _op_shape(op, children: list[tuple]) -> tuple:
    if isinstance(op, LogicalGet):
        entry = ("t", op.table.name, op.partitions)
        return ("rel", (entry,), frozenset())
    if isinstance(op, LogicalSelect):
        preds = _pred_set(op.predicate)
        child = children[0]
        if child[0] == "rel":
            return ("rel", child[1], child[2] | preds)
        return ("sel", preds, child)
    if isinstance(op, LogicalJoin):
        preds = _pred_set(op.condition)
        left, right = children
        if (
            op.kind is JoinKind.INNER
            and left[0] == "rel"
            and right[0] == "rel"
        ):
            tables = tuple(
                sorted(left[1] + right[1], key=_table_sort_key)
            )
            return ("rel", tables, left[2] | right[2] | preds)
        return ("join", op.kind.value, left, right, preds)
    if isinstance(op, (LogicalProject, LogicalWindow, LogicalCTEAnchor)):
        # Cardinality-transparent: the group's row count is its child's.
        return children[0]
    if isinstance(op, LogicalGbAgg):
        return (
            "agg",
            op.stage.value,
            tuple(sorted(c.name for c in op.group_cols)),
            children[0],
        )
    if isinstance(op, LogicalLimit):
        return ("limit", op.limit, op.offset, children[0])
    if isinstance(op, LogicalUnionAll):
        return ("union", tuple(children))
    if isinstance(op, LogicalApply):
        return ("apply", op.kind.value, children[0], children[1])
    if isinstance(op, LogicalCTEConsumer):
        return (
            "cte",
            op.cte_id,
            tuple(c.name for c in op.output_cols),
        )
    return ("op", op.name, tuple(children))


def plan_shapes(plan) -> frozenset:
    """All feedback shapes annotated on a plan tree (plan-cache tagging)."""
    return frozenset(
        node.shape for node in plan.walk() if node.shape is not None
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

#: Weight of a new actual in an entry's moving average of observed rows.
EWMA_ALPHA = 0.5
#: Confidence ramp: ``1 - OBS_GAIN ** observations``.
OBS_GAIN = 0.5
#: Confidence decays by this factor per ingest generation not re-observed.
STALENESS_DECAY = 0.995
#: Below this confidence an entry is treated as unknown.
MIN_CONFIDENCE = 0.2
#: Relative change of an entry's average that counts as a changed shape.
DRIFT_THRESHOLD = 0.05
#: Shapes a :class:`FeedbackStore` holds before it evicts the stalest.
MAX_ENTRIES = 4096


@dataclass
class FeedbackEntry:
    """Observed cardinality for one logical shape.

    ``observed_rows`` is an exponentially-weighted moving average over
    the ingested actuals; ``observations`` counts ingests and drives the
    confidence ramp; ``last_generation`` dates the entry for staleness
    decay.
    """

    shape: tuple
    observed_rows: float
    observations: int = 1
    last_generation: int = 0

    def confidence(self, current_generation: int) -> float:
        """Confidence in [0, 1): ramps up with repeated observations and
        decays multiplicatively per ingest generation not re-observed."""
        base = 1.0 - OBS_GAIN ** self.observations
        age = max(current_generation - self.last_generation, 0)
        return base * STALENESS_DECAY ** age


@dataclass(frozen=True)
class Correction:
    """A cardinality correction the deriver can apply to one group."""

    observed_rows: float
    confidence: float

    def corrected_rows(self, estimated_rows: float) -> float:
        """Blend observation and estimate by confidence.

        Monotone in ``observed_rows`` (the Hypothesis-tested contract)
        and never negative for non-negative inputs.
        """
        corrected = (
            self.confidence * self.observed_rows
            + (1.0 - self.confidence) * estimated_rows
        )
        return max(corrected, 0.0)


@dataclass
class IngestReport:
    """Outcome of ingesting one executed plan's actuals."""

    nodes_seen: int = 0
    new_entries: int = 0
    updated_entries: int = 0
    #: Shapes whose observed cardinality materially changed (new entries
    #: or drift beyond :data:`DRIFT_THRESHOLD`); affected plan
    #: cache entries must be invalidated against exactly this set.
    changed_shapes: frozenset = field(default_factory=frozenset)


class FeedbackStore:
    """(logical shape) -> observed cardinality, with confidence decay.

    All state transitions are deterministic functions of the ingest
    sequence — no wall clock — so replaying a workload reproduces the
    store bit-for-bit (the two-pass determinism contract).
    """

    def __init__(self, *, tracer=None):
        self.tracer = tracer or NULL_TRACER
        self._entries: dict[tuple, FeedbackEntry] = {}
        #: Bumped once per ingested plan; entries age against it.
        self.generation = 0
        #: Bumped whenever any entry's observation changes (plan caches
        #: key invalidation decisions off the changed-shape sets, but the
        #: version lets cheap "anything new?" checks short-circuit).
        self.version = 0
        self.ingests = 0
        self.lookup_hits = 0
        self.lookup_misses = 0
        self.evictions = 0
        #: Sessions on several threads may share one store: an ingest's
        #: folds and admissions, and a lookup's hit/miss count, hold it.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, plan, analysis) -> IngestReport:
        """Fold one executed plan's per-node actuals into the store.

        ``plan`` is the executed :class:`repro.search.plan.PlanNode`
        tree (shape-annotated at extraction time); ``analysis`` the
        :class:`repro.telemetry.analyze.PlanAnalysis` of its execution.
        Nodes without a shape annotation (legacy Planner plans, CTE
        producer wrappers) and row-replicating operators are skipped.
        """
        report = IngestReport()
        changed: set[tuple] = set()
        #: shape -> per-loop actual rows; the deepest node wins ties (all
        #: shape-sharing nodes of one plan report the same cardinality).
        observed: dict[tuple, float] = {}
        for node in plan.walk():
            if node.shape is None or node.op.name in _SKIP_OPS:
                continue
            stats = analysis.stats_for(node)
            if stats.loops <= 0:
                continue
            report.nodes_seen += 1
            observed[node.shape] = stats.rows_out / stats.loops
        with self._lock:
            self.generation += 1
            self.ingests += 1
            for shape, rows in observed.items():
                entry = self._entries.get(shape)
                if entry is None:
                    self._admit(FeedbackEntry(
                        shape=shape,
                        observed_rows=rows,
                        observations=1,
                        last_generation=self.generation,
                    ))
                    report.new_entries += 1
                    changed.add(shape)
                else:
                    before = entry.observed_rows
                    entry.observed_rows = (
                        EWMA_ALPHA * rows + (1.0 - EWMA_ALPHA) * before
                    )
                    entry.observations += 1
                    entry.last_generation = self.generation
                    report.updated_entries += 1
                    if self._drifted(before, entry.observed_rows):
                        changed.add(shape)
            if changed:
                self.version += 1
            report.changed_shapes = frozenset(changed)
        self.tracer.inc(
            families.FEEDBACK_ENTRIES, report.new_entries, outcome="new"
        )
        self.tracer.inc(
            families.FEEDBACK_ENTRIES, report.updated_entries, outcome="updated"
        )
        self.tracer.inc(families.FEEDBACK_INGESTS)
        return report

    def _drifted(self, before: float, after: float) -> bool:
        scale = max(abs(before), 1.0)
        return abs(after - before) / scale > DRIFT_THRESHOLD

    def _admit(self, entry: FeedbackEntry) -> None:
        if len(self._entries) >= MAX_ENTRIES:
            # Deterministic eviction: the stalest entry, then the least
            # observed, then insertion order (dict order is insertion
            # order, so no repr()-of-frozenset tie-breaks are needed).
            victim = min(
                self._entries.values(),
                key=lambda e: (e.last_generation, e.observations),
            )
            del self._entries[victim.shape]
            self.evictions += 1
        self._entries[entry.shape] = entry

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def correction(self, shape: tuple) -> Optional[Correction]:
        """The correction for a shape, or None when unknown / below the
        confidence floor."""
        with self._lock:
            entry = self._entries.get(shape)
            if entry is None:
                self.lookup_misses += 1
                return None
            confidence = entry.confidence(self.generation)
            if confidence < MIN_CONFIDENCE:
                self.lookup_misses += 1
                return None
            self.lookup_hits += 1
            return Correction(
                observed_rows=entry.observed_rows, confidence=confidence
            )

    def entry(self, shape: tuple) -> Optional[FeedbackEntry]:
        return self._entries.get(shape)

    def entries(self) -> Iterable[FeedbackEntry]:
        with self._lock:
            return list(self._entries.values())

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "generation": self.generation,
            "version": self.version,
            "ingests": self.ingests,
            "lookup_hits": self.lookup_hits,
            "lookup_misses": self.lookup_misses,
            "evictions": self.evictions,
        }

    def summary(self) -> str:
        s = self.stats()
        return (
            f"feedback store: {s['entries']} shapes over {s['ingests']} "
            f"ingests, {s['lookup_hits']} correction hits, "
            f"{s['evictions']} evictions"
        )
