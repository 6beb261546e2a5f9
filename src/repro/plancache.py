"""Parameterized plan cache: fingerprint, store, re-bind, reuse.

Orca's most expensive component is the search itself, so a repeated
query *shape* should not pay for it twice.  The cache normalizes a
parsed statement by replacing every literal with an ordered parameter
marker, producing a structural fingerprint plus the bound parameter
values.  Cached plans are keyed by

    (fingerprint, optimizer config, catalog version)

so a configuration change or any DDL/ANALYZE (which bumps per-table
versions, Section 4.1's Mdid versioning) invalidates stale entries
implicitly — the old key simply stops being looked up and ages out of
the LRU.

Reaching that key is three levels, each a dict probe on a warm session:

    text  ->  (AST, shape, params)  ->  plan

Parsing and fingerprinting are pure functions of the statement text, so
the cache's **statement front** remembers their result per text (a
bounded LRU, a fixed multiple of the plan capacity).  A text seen before
is not lexed, parsed or fingerprinted again, and when its plan is gone
(catalog bump, eviction) the stored AST is what gets re-optimized.
Nothing in the front depends on the catalog or the config, so it is
never invalidated; it relies on :mod:`repro.sql.ast`'s contract that an
AST returned by ``parse`` is never mutated.

Extracted plans are immutable (see :class:`repro.search.plan.PlanNode`),
so the cache stores the tree it is given and hands that same tree out:
a lookup with identical parameter values is an exact **hit** and costs
a dict probe.  The compiled state hanging off the tree (fused chains on
the root, row/vector closures on its scalar expressions) therefore
lives as long as the entry, and a repeated statement compiles nothing.
A lookup with *different* parameter values **re-binds** by path
copying: only the expressions, operators and plan nodes that lie above
a changed constant are rebuilt; every other subtree of the returned
plan is the stored object, compiled closures included.  Re-binding is
only attempted when it is provably unambiguous, which is recorded at
store time:

- every parameter value is distinct (under ``(type, value)``), so a
  plan constant maps back to exactly one parameter;
- every constant embedded in the physical plan is one of the parameters
  (constant folding or rewrite-introduced literals disqualify the plan,
  because a folded constant silently derived from a parameter could not
  be re-bound);
- no scan has statically eliminated partitions (the partition choice was
  made from the *old* parameter values).

Plans that fail these checks still serve exact-match hits.  Cost and
cardinality annotations on a re-bound plan are carried over from the
original optimization — the classic parameterized-plan trade-off: the
plan shape is reused even though the new bindings might have justified
a different plan.
"""

from __future__ import annotations

import enum
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Optional

from repro.ops.expression import Operator
from repro.ops.physical import PhysicalIndexScan
from repro.ops.scalar import ColRef, InList, Literal, ScalarExpr
from repro.search.plan import PlanNode
from repro.sql.ast import EIn, ELiteral
from repro.trace import NULL_TRACER

#: Marker standing in for one parameterized literal in a fingerprint; the
#: literal's type name follows it (``?int``, ``?float``, ``?str``, ...),
#: because ``1 == 1.0 == True`` while a plan built for one does not
#: compute what the others would.
_PARAM = "?"

#: Plans an optimizer's cache keeps (LRU eviction beyond this).
PLAN_CACHE_CAPACITY = 64

#: Statement-front entries per plan entry: the texts of one shape differ
#: in their literals, so there are several of them per cached plan.
_STATEMENTS_PER_PLAN = 8


def _dumps(entry: "CachedPlan") -> bytes:
    """Serialize one cache entry for the cross-process shared store."""
    return pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)


def _loads(blob: bytes) -> "CachedPlan":
    return pickle.loads(blob)


# ----------------------------------------------------------------------
# Query fingerprinting
# ----------------------------------------------------------------------

def fingerprint(stmt) -> tuple[tuple, tuple]:
    """Normalize a parsed statement into ``(shape, params)``.

    ``shape`` is a hashable structural fingerprint of the AST with every
    literal replaced by a parameter marker; ``params`` are the literal
    values in traversal order.  Two invocations of the same query text
    with different constants produce the same shape and different
    params.  LIKE patterns, LIMIT/OFFSET and identifiers stay
    structural: they change the plan shape, not just the bindings.
    """
    params: list[Any] = []
    shape = _fp(stmt, params)
    return shape, tuple(params)


def _fp(node: Any, params: list[Any]) -> Any:
    if isinstance(node, ELiteral):
        params.append(node.value)
        return _PARAM + type(node.value).__name__
    if isinstance(node, EIn) and node.values is not None:
        params.extend(node.values)
        return (
            "EIn",
            node.negated,
            _fp(node.arg, params),
            tuple(_PARAM + type(v).__name__ for v in node.values),
        )
    if node is None or isinstance(node, (bool, int, float, str, enum.Enum)):
        return node
    if isinstance(node, (list, tuple)):
        return tuple(_fp(item, params) for item in node)
    # Dataclass AST nodes: class name + fields in declaration order.
    return (
        type(node).__name__,
        tuple(_fp(value, params) for value in vars(node).values()),
    )


def _pkey(value: Any) -> tuple:
    """Identity key of one parameter value; typed so ``1 != 1.0 != True``."""
    return (type(value).__name__, value)


# ----------------------------------------------------------------------
# Plan-side constant discovery and re-binding
# ----------------------------------------------------------------------

def _same(new, old) -> bool:
    return all(a is b for a, b in zip(new, old))


def _rebound(value: Any, subst, memo: dict[int, Any]) -> Any:
    """``value`` with ``subst`` applied to every constant below it.

    Constants are ``Literal.value``, each of ``InList.values`` and an
    index scan's ``lo``/``hi``.  ``value`` is a plan node, an operator,
    a scalar expression or a tuple/list holding them; anything else is
    returned as is.  Nothing is written: an object is rebuilt only when
    a constant below it changed and is otherwise returned itself, so
    whatever it has cached (compiled closures, fused chains, child
    request alternatives) stays with it; a rebuilt object starts
    without those caches.  ``memo`` (``id(old) -> new``) makes an object reachable
    along two paths come out as one object again.
    """
    if isinstance(value, (tuple, list)):
        items = [_rebound(item, subst, memo) for item in value]
        return value if _same(items, value) else type(value)(items)
    if not isinstance(value, (ScalarExpr, Operator, PlanNode)):
        return value
    done = memo.get(id(value))
    if done is not None:
        return done
    if isinstance(value, Literal):
        const = subst(value.value)
        result = (
            value if const is value.value else Literal(const, value.dtype)
        )
    elif isinstance(value, PlanNode):
        op = _rebound(value.op, subst, memo)
        children = _rebound(value.children, subst, memo)
        result = (
            value if op is value.op and children is value.children
            else replace(value, op=op, children=children)
        )
    else:
        state = value.__getstate__()  # the fields, minus derived caches
        changed = False
        for name, old in state.items():
            if name == "values" and isinstance(value, InList):
                new = tuple(subst(v) for v in old)
                if _same(new, old):
                    continue
            elif name in ("lo", "hi") and isinstance(value, PhysicalIndexScan):
                new = old if old is None else subst(old)
            else:
                new = _rebound(old, subst, memo)
            if new is not old:
                state[name] = new
                changed = True
        if changed:
            result = object.__new__(type(value))
            vars(result).update(state)
        else:
            result = value
    memo[id(value)] = result
    return result


def _plan_constants(plan: PlanNode) -> Optional[list[tuple]]:
    """Identity keys of every constant embedded in the plan, or ``None``
    when the plan is structurally not re-bindable (static partition
    elimination baked the old parameter values into the plan shape).

    Walks with :func:`_rebound` itself (an identity substitution that
    takes notes), so what counts as a constant is defined once."""
    if any(
        getattr(node.op, "partitions", None) is not None
        for node in plan.walk()
    ):
        return None
    keys: list[tuple] = []

    def note(value: Any) -> Any:
        keys.append(_pkey(value))
        return value

    _rebound(plan, note, {})
    return keys


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------

@dataclass
class CachedPlan:
    """One cached optimization outcome."""

    plan: PlanNode
    output_cols: list[ColRef]
    output_names: list[str]
    #: Parameter values the plan was optimized with, in traversal order.
    params: tuple
    #: Whether re-binding different parameter values is unambiguous.
    rebindable: bool
    stats_confidence: float = 1.0
    #: Feedback shapes of the plan's nodes (repro.feedback); entries are
    #: evicted when an ingest changes the observed cardinality of any of
    #: them.  Empty when cardinality feedback is off.
    shapes: frozenset = frozenset()
    #: Per-table catalog versions the plan was optimized against; used by
    #: :meth:`PlanCache.evict_stale` to drop entries a DDL/ANALYZE made
    #: unreachable instead of letting them squat in the LRU.
    catalog_versions: tuple = ()


@dataclass
class CacheHit:
    """A successful lookup.  ``plan`` is the cached tree itself on an
    exact hit and shares every untouched subtree with it on a re-bind:
    read it, execute it, never write to it."""

    plan: PlanNode
    output_cols: list[ColRef]
    output_names: list[str]
    #: ``"hit"`` for an exact parameter match, ``"rebind"`` otherwise.
    kind: str
    stats_confidence: float = 1.0


class PlanCache:
    """LRU cache of optimized plans keyed by normalized query shape.

    ``shared`` optionally plugs in a cross-process backing store (the
    fleet's :class:`repro.fleet.shared.SharedPlanStore`): local misses
    consult it before giving up, and local stores publish to it, so a
    shape optimized by one worker process serves cache hits — including
    re-binds — from every other worker.
    """

    def __init__(
        self, capacity: int = PLAN_CACHE_CAPACITY, tracer=None, shared=None
    ):
        self.capacity = max(capacity, 1)
        #: Bound of the statement front.
        self.statement_capacity = self.capacity * _STATEMENTS_PER_PLAN
        self.tracer = tracer or NULL_TRACER
        #: Cross-process backing store, or None (single-process cache).
        self.shared = shared
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        #: The statement front: text -> (AST, shape, params), LRU.  An
        #: entry is one tuple, written once; the lock makes probe + touch
        #: and insert + trim one step each for threads sharing a session.
        self._statements: OrderedDict[str, tuple] = OrderedDict()
        self._statements_lock = threading.Lock()
        self.statement_hits = 0
        self.statement_misses = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rebinds = 0
        self.stores = 0
        #: Entries dropped because their catalog versions went stale
        #: (counted in ``evictions`` too).
        self.stale_evictions = 0
        #: Entries dropped because a feedback ingest changed an observed
        #: cardinality one of their nodes depends on (also in ``evictions``).
        self.feedback_invalidations = 0
        #: Local misses answered by the shared cross-process store, and
        #: entries published to it (both zero without ``shared``).
        self.shared_hits = 0
        self.shared_stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def statement(self, text: str) -> Optional[tuple]:
        """``(stmt, shape, params)`` of a text seen before, else None."""
        with self._statements_lock:
            seen = self._statements.get(text)
            if seen is None:
                self.statement_misses += 1
            else:
                self._statements.move_to_end(text)
                self.statement_hits += 1
        self.tracer.record(
            "plan_cache_statement_miss" if seen is None
            else "plan_cache_statement_hit"
        )
        return seen

    def remember_statement(
        self, text: str, stmt, shape: tuple, params: tuple
    ) -> None:
        """Keep what parsing and fingerprinting ``text`` produced."""
        with self._statements_lock:
            self._statements[text] = (stmt, shape, params)
            while len(self._statements) > self.statement_capacity:
                self._statements.popitem(last=False)

    def _adopt_shared(self, key: tuple) -> Optional[CachedPlan]:
        """Pull ``key`` from the shared store into the local LRU."""
        if self.shared is None:
            return None
        blob = self.shared.get(key)
        if blob is None:
            return None
        entry: CachedPlan = _loads(blob)
        self._entries[key] = entry
        self.shared_hits += 1
        self.tracer.record("plan_cache_shared_hit", key=hash(key))
        self._trim()
        return entry

    def lookup(self, key: tuple, params: tuple) -> Optional[CacheHit]:
        """Return a reusable plan for ``key`` bound to ``params``, if any."""
        entry = self._entries.get(key)
        if entry is None:
            entry = self._adopt_shared(key)
        if entry is None:
            return self._miss(key)
        if entry.params == params:
            self._entries.move_to_end(key)
            self.hits += 1
            self.tracer.record("plan_cache_hit", key=hash(key), rebound=False)
            return CacheHit(
                plan=entry.plan,
                output_cols=list(entry.output_cols),
                output_names=list(entry.output_names),
                kind="hit",
                stats_confidence=entry.stats_confidence,
            )
        mapping = self._rebind_mapping(entry, params)
        if mapping is None:
            return self._miss(key)
        plan = _rebound(
            entry.plan, lambda v: mapping.get(_pkey(v), v), {}
        )
        self._entries.move_to_end(key)
        self.hits += 1
        self.rebinds += 1
        self.tracer.record("plan_cache_hit", key=hash(key), rebound=True)
        return CacheHit(
            plan=plan,
            output_cols=list(entry.output_cols),
            output_names=list(entry.output_names),
            kind="rebind",
            stats_confidence=entry.stats_confidence,
        )

    def store(
        self,
        key: tuple,
        params: tuple,
        plan: PlanNode,
        output_cols: list[ColRef],
        output_names: list[str],
        stats_confidence: float = 1.0,
        shapes: frozenset = frozenset(),
        catalog_versions: tuple = (),
    ) -> None:
        """Cache one optimization outcome, evicting LRU entries beyond
        capacity."""
        entry = CachedPlan(
            plan=plan,
            output_cols=list(output_cols),
            output_names=list(output_names),
            params=params,
            rebindable=self._rebindable(plan, params),
            stats_confidence=stats_confidence,
            shapes=shapes,
            catalog_versions=catalog_versions,
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stores += 1
        if self.shared is not None:
            self.shared.put(
                key, _dumps(entry),
                shapes=shapes, catalog_versions=catalog_versions,
            )
            self.shared_stores += 1
        self.tracer.record(
            "plan_cache_store", key=hash(key), shared=self.shared is not None
        )
        self._trim()

    def _trim(self) -> None:
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            self.tracer.record("plan_cache_evict", key=hash(evicted))

    # ------------------------------------------------------------------
    def evict_stale(self, current_versions: tuple) -> int:
        """Evict entries optimized against outdated catalog versions.

        The cache key embeds the versions too, so stale entries were
        already unreachable — but unreachable is not gone: they squat in
        the LRU evicting live plans.  Called by the optimizer whenever it
        observes the catalog versions changing (the Section 4.1 metadata
        versioning made the staleness detectable; this makes it acted on).
        With a shared backing store the eviction is fleet-wide: stale
        entries are purged from the cross-process store too.
        """
        if self.shared is not None:
            self.shared.evict_stale(current_versions)
        stale = [
            key for key, entry in self._entries.items()
            if entry.catalog_versions != current_versions
        ]
        for key in stale:
            del self._entries[key]
            self.evictions += 1
            self.stale_evictions += 1
            self.tracer.record(
                "plan_cache_evict", key=hash(key), reason="stale_catalog"
            )
        return len(stale)

    def invalidate_shapes(self, changed: frozenset) -> int:
        """Evict entries whose plans depend on any changed feedback shape.

        A cached plan was chosen under the estimates current at store
        time; once an ingest materially moves the observed cardinality of
        a shape the plan contains, re-optimizing (with the correction
        applied) can pick a better plan, so serving the cached one would
        pin the stale choice forever.
        """
        if not changed:
            return 0
        if self.shared is not None:
            self.shared.invalidate_shapes(changed)
        dead = [
            key for key, entry in self._entries.items()
            if entry.shapes & changed
        ]
        for key in dead:
            del self._entries[key]
            self.evictions += 1
            self.feedback_invalidations += 1
            self.tracer.record(
                "plan_cache_evict", key=hash(key), reason="feedback"
            )
        return len(dead)

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "rebinds": self.rebinds,
            "stores": self.stores,
            "evictions": self.evictions,
            "stale_evictions": self.stale_evictions,
            "feedback_invalidations": self.feedback_invalidations,
            "shared_hits": self.shared_hits,
            "shared_stores": self.shared_stores,
            "entries": len(self._entries),
            "statement_hits": self.statement_hits,
            "statement_misses": self.statement_misses,
            "statements": len(self._statements),
        }

    def summary(self) -> str:
        s = self.stats()
        return (
            f"plan cache: {s['hits']} hits ({s['rebinds']} re-bound), "
            f"{s['misses']} misses, {s['evictions']} evictions, "
            f"{s['entries']}/{self.capacity} entries"
        )

    # ------------------------------------------------------------------
    def _miss(self, key: tuple) -> None:
        self.misses += 1
        self.tracer.record("plan_cache_miss", key=hash(key))
        return None

    @staticmethod
    def _rebindable(plan: PlanNode, params: tuple) -> bool:
        pkeys = [_pkey(v) for v in params]
        if len(set(pkeys)) != len(pkeys):
            return False  # ambiguous: one constant, several parameters
        constants = _plan_constants(plan)
        if constants is None:
            return False  # static partition elimination baked values in
        return set(constants) <= set(pkeys)

    @staticmethod
    def _rebind_mapping(
        entry: CachedPlan, params: tuple
    ) -> Optional[dict[tuple, Any]]:
        """old-value key -> new value for every parameter that changed,
        or None when re-binding is unsafe."""
        if not entry.rebindable or len(entry.params) != len(params):
            return None
        # Same key, so same shape: the parameters agree in type, position
        # by position (the shape's markers are typed).
        return {
            _pkey(old): new
            for old, new in zip(entry.params, params)
            if new != old
        }
