"""The compiled engine: every pipeline of a plan runs as generated code.

:mod:`repro.engine.pipeline` splits a physical plan at pipeline breakers
(hash-join build sides, aggregations, sorts, motions).  This module
compiles every chain that is left — scan→filter→project, probe→probe→
agg, a lone filter — into one generated Python loop nest (a *stage*)
that streams rows end-to-end without materializing anything in
between: filters drop rows in place, projects extend the row tuple,
every hash-join probe of the chain is a loop (or, over a unique build
side, a lookup) nested inside the one before it, and an aggregation
sink folds rows into its group table as they arrive.  Filter, Project,
HashJoin and both aggregations therefore never run through a handler,
in either execution mode; the breakers do, on the executor's one
handler table.  ``ExecutionMode.ROW`` is this engine with fusion off:
every streaming operator and sink is a one-operator chain of its own
(:func:`fused_chains` with ``fuse=False``), whose input is
materialized.  Every handler and :func:`run_chain` hand ``DRows`` to
whatever is above them.

A chain is one stage with one exception (:func:`_compile_chain`): a
probe that fans a REPLICATED outer out over a build side that is not
replicated (``Executor._join_sides``) starts a new stage unless it
heads its own, so the work before it still runs once.

The loops are compiled through, expressions included: filter
predicates, projections, aggregate arguments and join residuals are
rendered by :class:`repro.engine.emit.Emitter`, the one semantics of a
scalar expression (sqlite is its judge), and inlined into the stage
source, so a stage calls no Python function per row (a DISTINCT
aggregate keeps its ``_agg_add_value`` call).  Next
to ``_stage`` a sink stage's source defines ``_init`` / ``_final`` (a
fresh group state, groups -> output rows), so the shapes they share
are decided once:

- *keys*: a one-column join or group key is the bare value, two or
  more a tuple (a group key is widened back to a tuple when its row is
  finalized); :func:`_build` keys the build rows the same way;
- *aggregate state*: one flat list per group with a literal
  initializer in the source — ``count``, ``sum``, ``min`` and ``max``
  one cell each, ``avg`` two (sum, n) — or, for a scalar aggregate,
  one local per cell, stored once after the loop; sums stay
  ``_a + _v`` in arrival order, so floats do not depend on how far a
  chain is fused;
- *rows*: a joined row is the source row plus one candidate per probe,
  read in place (:class:`repro.engine.emit.Layout`); the tuple is built
  only where something reads the whole row — a project or the final
  ``_append``.

Every build side is hashed per unit at run time, never from statistics
or the catalog.  When each of its keys has exactly one row the table
maps key -> row, and an INNER probe (or a LEFT one with no residual)
is a lookup with no candidate loop; otherwise key -> rows.  A stage
therefore has one generated variant per uniqueness signature (a flag
per probe), made the first time a unit needs it (:meth:`_Stage.code`).
A LEFT probe with no residual finds its NULL pad as the lookup's
default, so its body is emitted once.

The contract between the two modes is strict float identity, and it
holds by construction: every charge is a closed-form function of
per-node per-bucket row counts, booked on the node that incurs it
(``ExecutionMetrics.ledger``).  A stage streams first, touching no
metric and only counting rows at every operator; then its nodes are
charged in chain order from those counts through the executor's
helpers (``_charge_by_kind``, ``_charge_hash_side``, ``_check_memory``)
and closed with ``_node_done``, whichever chain they sit in.
``tests/test_fused_executor.py`` pins fused == row across the TPC-DS
corpus for rows, ExecutionMetrics and per-node NodeStats, and
``tests/test_sqlite_oracle.py`` holds the rows of both to sqlite.

Compiled chains are cached on the plan root (``plan._fused_cache``, or
``plan._unfused_cache`` with fusion off).
The plan cache hands out the tree it stored, so repeated executions of
a cached plan pay compilation once; ``PlanNode.__getstate__`` strips the
cache so plans still pickle into the fleet's ``SharedPlanStore`` (a
worker that adopts an entry compiles it on its first execution and
never again).  A re-bound plan has a new root and compiles its chains
anew, but the generated source holds no constant except SQL ``NULL``:
literal values, ``IN`` lists, ``LIKE`` matchers, NULL pads and DISTINCT
aggregates arrive through ``_B``.  The code objects therefore come from
``_stage_code``'s by-source memo — one entry per stage *shape* and
signature — and a re-bind does not reach the Python compiler.

When the executor carries a :class:`repro.engine.parallel.MorselPool`,
each stage's units (one per bucket or segment) are dispatched across
the pool with their build rows; a worker hashes them, picks the variant
its own tables call for, and the results are gathered back in unit
order, so the charges (and with them every metric, trace event and
NodeStats figure) are float-identical to the serial path.  See
DESIGN.md §3l.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Optional

from repro.engine.emit import Emitter, Layout, load_generated
from repro.engine.executor import (
    REPLICATED,
    DRows,
    Executor,
    _agg_add_value,
    _agg_final,
    _agg_init,
    _row_width,
    _sort_rows,
)
from repro.engine.parallel import ChainSpec, next_chain_key
from repro.engine.pipeline import Pipeline, fusable_pipelines
from repro.ops import physical as ph
from repro.ops.logical import JoinKind
from repro.props.order import SortKey
from repro.search.plan import PlanNode

_EMPTY: tuple = ()

#: Generated stage source -> its code object.  One entry per distinct
#: stage shape (operator sequence, join kind, key arity, column
#: positions) and uniqueness signature, never per literal, so the
#: workload's plan shapes bound it.
_stage_code: dict[str, Any] = {}


def fused_chains(plan: PlanNode, fuse: bool = True) -> dict[int, Pipeline]:
    """Map ``id(top node) -> Pipeline`` for every chain of ``plan``
    segmented with ``fuse``, cached on the plan root under one attribute
    per flag (stripped on pickle)."""
    attr = "_fused_cache" if fuse else "_unfused_cache"
    cache = plan.__dict__.get(attr)
    if cache is None:
        cache = {id(p.top): p for p in fusable_pipelines(plan, fuse)}
        setattr(plan, attr, cache)
    return cache


def _index(cols) -> dict[int, int]:
    return {c.id: i for i, c in enumerate(cols)}


def _tuple(items) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


# ----------------------------------------------------------------------
# Chain compilation: the stage partition
# ----------------------------------------------------------------------

def _build(rows, positions: tuple, may_map: bool) -> tuple[dict, bool]:
    """Hash one unit's build rows: ``(table, unique)``.

    Rows whose key holds a NULL are left out.  A one-column key is the
    bare value, two or more a tuple — what the probe's key expression
    yields.  With ``may_map`` and every key on exactly one row, the
    table maps key -> row (``unique``); otherwise key -> rows in arrival
    order."""
    keys = list(map(itemgetter(*positions), rows))
    if len(positions) == 1:
        nulls = [None] * keys.count(None)
    else:
        nulls = [k for k in keys if None in k]
    if may_map:
        table = dict(zip(keys, rows))
        for key in nulls:
            table.pop(key, None)
        if len(table) + len(nulls) == len(keys):
            return table, True
    table = {}
    setd = table.setdefault
    for key, row in zip(keys, rows):
        setd(key, []).append(row)
    for key in nulls:
        table.pop(key, None)
    return table, False


class _Probe:
    """One hash join of a stage: its node, its build side's columns and
    key positions, and whether a unique build side may be probed by
    lookup (INNER, and LEFT with no residual)."""

    __slots__ = ("node", "cols", "keys", "may_map")

    def __init__(self, node: PlanNode, cols):
        op = node.op
        self.node = node
        self.cols = list(cols)
        index = _index(self.cols)
        self.keys = tuple(index[c.id] for c in op.right_keys)
        self.may_map = op.kind is JoinKind.INNER or (
            op.kind is JoinKind.LEFT and op.residual is None
        )

    def build(self, rows) -> tuple[dict, bool]:
        return _build(rows, self.keys, self.may_map)


class _Code:
    """One generated variant of a stage."""

    __slots__ = ("fn", "init", "final", "bound", "source")

    def __init__(self, namespace: dict, bound: tuple, source: str):
        #: The streaming loop; for a sink stage, a fresh group state and
        #: groups -> output rows.
        self.fn: Callable = namespace["_stage"]
        self.init: Optional[Callable] = namespace.get("_init")
        self.final: Optional[Callable] = namespace.get("_final")
        self.bound = bound
        self.source = source


class _Stage:
    """One compiled chain segment: its filters, projects and hash-join
    probes and an optional aggregation sink, nested in chain order
    into one generated loop."""

    __slots__ = ("in_cols", "ops", "probes", "agg", "counter_of", "variants")

    def __init__(self, in_cols: list):
        self.in_cols = in_cols
        #: Every node of the stage in chain order, the sink last.
        self.ops: list[PlanNode] = []
        self.probes: list[_Probe] = []
        self.agg: Optional[PlanNode] = None
        #: id(node) -> index into the counter tuple the stage returns
        #: (filters and probes: the rows they let through).
        self.counter_of: dict[int, int] = {}
        #: Uniqueness signature -> the variant generated for it.
        self.variants: dict[tuple, _Code] = {}

    def add(self, node: PlanNode, build_cols=None) -> None:
        self.ops.append(node)
        t = type(node.op)
        if t is ph.PhysicalHashJoin:
            self.probes.append(_Probe(node, build_cols))
        if t is ph.PhysicalHashJoin or t is ph.PhysicalFilter:
            self.counter_of[id(node)] = len(self.counter_of)
        elif t is not ph.PhysicalProject:
            self.agg = node

    def code(self, sig: tuple) -> _Code:
        """The variant for ``sig`` (per probe: its table maps key ->
        row), generated the first time a unit needs it."""
        code = self.variants.get(sig)
        if code is None:
            code = self.variants[sig] = _StageGen(self, sig).generate()
        return code

    def sink(self) -> _Code:
        """A variant to take ``_init`` / ``_final`` from: they do not
        depend on the signature."""
        for code in self.variants.values():
            return code
        return self.code((False,) * len(self.probes))

    def run(self, rows, tables, params) -> tuple[tuple, Any]:
        """Stream one unit: ``rows`` against ``tables`` (per probe, what
        :meth:`_Probe.build` returned).  Returns ``(counters, output
        rows)``, or the unit's group table for a sink stage."""
        code = self.code(tuple(unique for _t, unique in tables))
        hashed = tuple(table for table, _u in tables)
        if self.agg is not None:
            groups: dict = {}
            return code.fn(rows, hashed, params, None, code.bound, groups), groups
        out: list = []
        return code.fn(rows, hashed, params, out.append, code.bound, None), out


class CompiledChain:
    __slots__ = ("stages", "node_cols", "kinds", "key", "spec")

    def __init__(self, stages, node_cols, kinds):
        self.stages: list[_Stage] = stages
        #: id(node) -> output column layout (widths / final result).
        self.node_cols: dict[int, list] = node_cols
        #: The source's and the build sides' distribution kinds the
        #: partition read.
        self.kinds: tuple = kinds
        #: Process-unique id the morsel pool keys worker compile caches
        #: by, and the picklable compile recipe shipped to each worker
        #: (at most once per worker); both set by :func:`run_chain`.
        self.key: int = 0
        self.spec: Optional[ChainSpec] = None


def _compile_chain(ops, src_cols, src_kind: str, inners) -> CompiledChain:
    """Partition ``ops`` into stages and lay out every node's columns.
    ``inners`` maps ``id(join node)`` to its build side (``.cols``,
    ``.kind``)."""
    cols = list(src_cols)
    kind = src_kind
    node_cols: dict[int, list] = {}
    st = _Stage(cols)
    stages = [st]
    for node in ops:
        op = node.op
        t = type(op)
        if t is ph.PhysicalHashJoin:
            inner = inners[id(node)]
            # The one exception to one stage per chain: a REPLICATED
            # outer against a build side that is not replicated runs
            # once per segment (Executor._join_sides).  Heading its stage
            # it fans the stage out; after other work it starts a new
            # stage, or that work would run once per segment too.
            if kind == REPLICATED and inner.kind != REPLICATED and st.ops:
                st = _Stage(cols)
                stages.append(st)
            st.add(node, inner.cols)
            kind = Executor._join_output_kind(kind, inner.kind)
            if not op.kind.output_is_left_only():
                cols = cols + list(inner.cols)
        else:
            st.add(node)
            if t is ph.PhysicalProject:
                cols = cols + [c for _e, c in op.projections]
            elif t is not ph.PhysicalFilter:
                cols = list(op.group_cols) + [c for _a, c in op.aggs]
        node_cols[id(node)] = cols
    kinds = (src_kind,) + tuple(inners[id(p.node)].kind for s in stages
                                for p in s.probes)
    return CompiledChain(stages, node_cols, kinds)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

#: Initial cells of the aggregates whose state is inlined; DISTINCT
#: aggregates keep their ``_agg_init`` slot in one cell instead.
_AGG_CELLS = {
    "count": ["0"],
    "sum": ["None"],
    "avg": ["None", "0"],
    "min": ["None"],
    "max": ["None"],
}


class _AggState:
    """The flat state of an aggregation sink: per group a list with
    each aggregate's cells at a fixed offset; for a scalar aggregation,
    one local per cell."""

    def __init__(self, op, em: Emitter):
        self.op = op
        self.grouped = bool(op.group_cols)
        #: (aggregate, offset of its first cell, its index in ``_B``
        #: when it goes through _agg_add_value / _agg_final, else None).
        self.cells: list[tuple] = []
        init: list[str] = []
        for agg, _c in op.aggs:
            offset = len(init)
            if agg.distinct:
                slot = len(em.bound)
                em.bind(agg)
                init.append(f"_agg_init(_B[{slot}])")
            else:
                slot = None
                init.extend(_AGG_CELLS[agg.name])
            self.cells.append((agg, offset, slot))
        self.init_cells = init
        #: List display that creates a new group's state.
        self.init = "[" + ", ".join(init) + "]"

    def cell(self, o: int) -> str:
        return f"_st[{o}]" if self.grouped else f"_s{o}"

    def head(self) -> list[str]:
        """Stage prologue: the group table's lookup, or the scalar
        state's locals."""
        if self.grouped:
            return ["    _gget = _groups.get"]
        return [f"    {self.cell(o)} = {v}" for o, v in enumerate(self.init_cells)]

    def tail(self, arrived: str) -> list[str]:
        """Stage epilogue: a scalar state becomes the one group, if any
        row arrived."""
        if self.grouped:
            return []
        cells = ", ".join(self.cell(o) for o in range(len(self.init_cells)))
        return [f"    if {arrived}:", f"        _groups[()] = [{cells}]"]

    def emit_fold(self, out, ind, em: Emitter, layout: Layout) -> None:
        """Emit the group lookup and one row's fold into its state."""
        if self.grouped:
            keys = [layout.at(layout.index[c.id]) for c in self.op.group_cols]
            out.append(
                f"{ind}_gk = {keys[0] if len(keys) == 1 else _tuple(keys)}"
            )
            out.append(f"{ind}_st = _gget(_gk)")
            out.append(f"{ind}if _st is None:")
            out.append(f"{ind}    _st = _groups[_gk] = {self.init}")
        for agg, o, slot in self.cells:
            cell = self.cell(o)
            # count(*) folds the constant 1, as a window count does.
            val = "1" if agg.arg is None else em.value(agg.arg, layout)
            if slot is not None:
                out.append(f"{ind}_agg_add_value({cell}, _f{slot}, {val})")
            elif agg.arg is None and agg.name == "count":
                out.append(f"{ind}{cell} += 1")
            elif agg.name == "count":
                out.append(f"{ind}if {val} is not None:")
                out.append(f"{ind}    {cell} += 1")
            else:
                out.append(f"{ind}_v = {val}")
                out.append(f"{ind}if _v is not None:")
                out.append(f"{ind}    _a = {cell}")
                if agg.name in ("sum", "avg"):
                    out.append(
                        f"{ind}    {cell} = _v if _a is None else _a + _v"
                    )
                    if agg.name == "avg":
                        out.append(f"{ind}    {self.cell(o + 1)} += 1")
                else:
                    cmp = "<" if agg.name == "min" else ">"
                    out.append(f"{ind}    if _a is None or _v {cmp} _a:")
                    out.append(f"{ind}        {cell} = _v")

    def emit_defs(self) -> list[str]:
        """``_init()`` (the scalar-over-empty group) and ``_final``
        (groups -> output rows, the key widened back to a tuple)."""
        outs = []
        for agg, o, slot in self.cells:
            if slot is not None:
                outs.append(f"_agg_final(_s[{o}], _B[{slot}])")
            elif agg.name == "avg":
                outs.append(
                    f"(None if _s[{o + 1}] == 0 or _s[{o}] is None"
                    f" else _s[{o}] / _s[{o + 1}])"
                )
            else:
                outs.append(f"_s[{o}]")
        nkeys = len(self.op.group_cols)
        if nkeys == 1:
            row = _tuple(["_k"] + outs)
        elif nkeys:
            row = f"_k + {_tuple(outs)}"
        else:
            row = _tuple(outs)
        return [
            "def _init(_B):",
            f"    return {self.init}",
            "def _final(_groups, _B):",
            "    _out = []",
            "    _append = _out.append",
            "    for _k, _s in _groups.items():",
            f"        _append({row})",
            "    return _out",
        ]


class _StageGen:
    """Generates one variant of a stage: the loop nest ``_stage``, plus
    ``_init`` / ``_final`` for a sink stage."""

    def __init__(self, st: _Stage, sig: tuple):
        self.st = st
        self.sig = sig
        self.em = Emitter()
        self.state = (
            _AggState(st.agg.op, self.em) if st.agg is not None else None
        )
        self.probe_of = {id(p.node): j for j, p in enumerate(st.probes)}

    def counter(self, node) -> str:
        return f"_c{self.st.counter_of[id(node)]}"

    def generate(self) -> _Code:
        st = self.st
        head: list[str] = []
        for j, probe in enumerate(st.probes):
            op = probe.node.op
            if op.kind in (JoinKind.SEMI, JoinKind.ANTI) and op.residual is None:
                # Asks only whether its key is in the table.
                head.append(f"    _m{j} = _T[{j}]")
            else:
                head.append(f"    _get{j} = _T[{j}].get")
        tail: list[str] = []
        defs: list[str] = []
        if self.state is not None:
            head += self.state.head()
            # Rows reach the sink through the last node that drops any.
            arrived = "_rows"
            for node in st.ops:
                if id(node) in st.counter_of:
                    arrived = self.counter(node)
            tail = self.state.tail(arrived)
            defs = self.state.emit_defs()
        names = [f"_c{i}" for i in range(len(st.counter_of))]
        if names:
            head.append("    " + " = ".join(names) + " = 0")
        loop = ["    for _r in _rows:"]
        self.emit(loop, 0, "        ", (("_r", len(st.in_cols)),), st.in_cols)
        src = "\n".join(
            ["def _stage(_rows, _T, _params, _append, _B, _groups):"]
            + self.em.unpack() + head + loop + tail
            + [f"    return {_tuple(names)}"] + defs
        ) + "\n"
        namespace = load_generated(
            src, "<fused-pipeline>", _stage_code,
            _E=_EMPTY, _agg_init=_agg_init, _agg_add_value=_agg_add_value,
            _agg_final=_agg_final,
        )
        return _Code(namespace, tuple(self.em.bound), src)

    def emit(self, out, i, ind, parts, cols) -> None:
        """Emit ``st.ops[i:]`` for one candidate row held in ``parts``,
        then the sink or ``_append``.

        A generated ``continue`` moves on to the next candidate of the
        innermost enclosing loop: every operator is emitted inside the
        loop (or after the lookup) that yields its input row.
        """
        st = self.st
        em = self.em
        for i in range(i, len(st.ops)):
            node = st.ops[i]
            op = node.op
            t = type(op)
            layout = Layout(_index(cols), parts)
            if t is ph.PhysicalHashJoin:
                self.emit_probe(out, i, ind, parts, cols, layout)
                return
            if t is ph.PhysicalFilter:
                out.append(f"{ind}if not {em.truth(op.predicate, layout)}:")
                out.append(f"{ind}    continue")
                out.append(f"{ind}{self.counter(node)} += 1")
            elif t is ph.PhysicalProject:
                values = [em.value(e, layout) for e, _c in op.projections]
                name = f"_p{i}"
                out.append(f"{ind}{name} = {layout.row} + {_tuple(values)}")
                cols = cols + [c for _e, c in op.projections]
                parts = ((name, len(cols)),)
            else:
                self.state.emit_fold(out, ind, em, layout)
                return
        out.append(f"{ind}_append({Layout({}, parts).row})")

    def emit_probe(self, out, i, ind, parts, cols, layout) -> None:
        """Emit probe ``st.ops[i]`` and, nested in it, the rest of the
        stage.  Its candidate ``_x<j>`` is one more part of the row; the
        residual reads it in place whatever the join puts out (a SEMI /
        ANTI join's rows have no build side; its residual may still
        read one)."""
        em = self.em
        node = self.st.ops[i]
        op = node.op
        jk = op.kind
        j = self.probe_of[id(node)]
        probe = self.st.probes[j]
        x = f"_x{j}"
        keys = [layout.at(layout.index[c.id]) for c in op.left_keys]
        key = keys[0] if len(keys) == 1 else _tuple(keys)
        both_cols = cols + probe.cols
        both_parts = parts + ((x, len(probe.cols)),)
        test = None
        if op.residual is not None:
            test = em.truth(op.residual, Layout(_index(both_cols), both_parts))
        hits = self.counter(node)
        body = ind + "    "
        pad = (None,) * len(probe.cols)

        if jk is JoinKind.SEMI or jk is JoinKind.ANTI:
            if test is None:
                member = "not in" if jk is JoinKind.SEMI else "in"
                out.append(f"{ind}if {key} {member} _m{j}:")
            else:
                flag = f"_h{j}"
                out += [
                    f"{ind}{flag} = False",
                    f"{ind}for {x} in _get{j}({key}, _E):",
                    f"{body}if {test}:",
                    f"{body}    {flag} = True",
                    f"{body}    break",
                    f"{ind}if {'not ' if jk is JoinKind.SEMI else ''}{flag}:",
                ]
            out.append(f"{ind}    continue")
            out.append(f"{ind}{hits} += 1")
            self.emit(out, i + 1, ind, parts, cols)
            return

        if jk is JoinKind.LEFT and test is not None:
            # A miss is known only after every candidate failed, so the
            # rest of the stage is emitted twice: per passing candidate,
            # and once over the pad.
            flag = f"_h{j}"
            out += [
                f"{ind}{flag} = False",
                f"{ind}for {x} in _get{j}({key}, _E):",
                f"{body}if not {test}:",
                f"{body}    continue",
                f"{body}{flag} = True",
                f"{body}{hits} += 1",
            ]
            self.emit(out, i + 1, body, both_parts, both_cols)
            out += [
                f"{ind}if not {flag}:",
                f"{body}{x} = {em.bind(pad)}",
                f"{body}{hits} += 1",
            ]
            self.emit(out, i + 1, body, both_parts, both_cols)
            return

        # INNER, and LEFT with no residual, where a miss is one padded
        # candidate: the lookup's default.
        unique = self.sig[j]
        if jk is JoinKind.LEFT:
            miss = em.bind(pad if unique else [pad])
        else:
            miss = None if unique else "_E"
        if unique:
            out.append(
                f"{ind}{x} = _get{j}({key}{', ' + miss if miss else ''})"
            )
            if miss is None:
                out += [f"{ind}if {x} is None:", f"{ind}    continue"]
            body = ind
        else:
            out.append(f"{ind}for {x} in _get{j}({key}, {miss}):")
        if test is not None:
            out += [f"{body}if not {test}:", f"{body}    continue"]
        out.append(f"{body}{hits} += 1")
        self.emit(out, i + 1, body, both_parts, both_cols)


# ----------------------------------------------------------------------
# Runtime: stream each stage, then charge its nodes from their row counts
# ----------------------------------------------------------------------

def run_chain(ex, chain: Pipeline) -> DRows:
    """Execute one fused chain.  Called from ``Executor._exec`` in place
    of the top node's handler; the caller closes the top node
    (``Executor._node_done``), this closes every node below it."""
    ops = chain.ops
    top = ops[-1]
    inners: dict[int, DRows] = {}
    # Build sides first, outermost join first, then the source: the
    # order one-operator chains take as well.
    for node in reversed(ops):
        if type(node.op) is ph.PhysicalHashJoin:
            inner = ex._exec(node.children[1])
            ex._publish_selectors(inner)
            inners[id(node)] = inner
    src = ex._exec(chain.source)
    compiled = chain.compiled
    if compiled is None or compiled.kinds != (src.kind,) + tuple(
        inners[id(n)].kind for n in ops if type(n.op) is ph.PhysicalHashJoin
    ):
        with ex.tracer.span("fused:compile", ops=len(ops)):
            compiled = chain.compiled = _compile_chain(
                ops, src.cols, src.kind, inners
            )
        # The morsel-pool handshake: a process-unique key plus the
        # picklable recipe workers recompile from (deterministic
        # codegen, so worker stage functions and counter indices match
        # this process's compilation exactly).
        compiled.key = next_chain_key()
        compiled.spec = ChainSpec(
            ops=[n.op for n in ops],
            src_cols=list(src.cols),
            src_kind=src.kind,
            inners=[
                (i, list(inners[id(n)].cols), inners[id(n)].kind)
                for i, n in enumerate(ops)
                if type(n.op) is ph.PhysicalHashJoin
            ],
        )
        if ex.tracer.enabled:
            ex.tracer.record(
                "chain_compiled",
                ops=len(ops),
                stages=len(compiled.stages),
                chain=chain.describe(),
            )

    # With a morsel pool attached, each stage's units are scattered
    # across the pool and gathered in order; without one, they run
    # inline.  Both paths yield identical per-unit rows and counters,
    # which is all the charges below read.
    params = ex._param_env
    pool = ex._morsel_pool
    p = ex.params
    kind = src.kind
    cur_buckets = src.buckets
    result: Optional[DRows] = None
    for stage_idx, st in enumerate(compiled.stages):
        # The stage's units: its input buckets, or the work units of a
        # probe heading it (which may fan one bucket out per segment);
        # and per probe, each unit's (segment, build rows).
        units = cur_buckets
        sides: list[list[tuple]] = []
        at = kind
        for probe in st.probes:
            inner = inners[id(probe.node)]
            pairs = ex._join_sides(at, units, inner)
            if probe.node is st.ops[0]:
                units = [o_rows for _seg, o_rows, _i in pairs]
            sides.append([(seg, i_rows) for seg, _o, i_rows in pairs])
            at = ex._join_output_kind(at, inner.kind)
        if pool is not None and len(units) > 1:
            morsels = [
                (rows, [side[u][1] for side in sides])
                for u, rows in enumerate(units)
            ]
            with ex.tracer.span(
                "fused:morsels",
                stage_idx=stage_idx,
                morsels=len(morsels),
                workers=pool.workers,
            ):
                results = pool.run_stage(
                    compiled.key, lambda: compiled.spec, stage_idx,
                    morsels, params,
                    # Stage-0 buckets are scan-cache-served with stable
                    # identity across executions, so they enter the
                    # pool's resident cache; later stages' buckets are
                    # fresh objects every pass and ship inline.
                    cache_source=stage_idx == 0,
                )
        else:
            tables = []
            for probe, side in zip(st.probes, sides):
                built: dict[int, tuple] = {}
                for _seg, i_rows in side:
                    if id(i_rows) not in built:
                        built[id(i_rows)] = probe.build(i_rows)
                tables.append([built[id(i_rows)] for _seg, i_rows in side])
            results = [
                st.run(rows, [t[u] for t in tables], params)
                for u, rows in enumerate(units)
            ]
        per_counter = [
            [cts[i] for cts, _payload in results]
            for i in range(len(st.counter_of))
        ]

        # Charge and close the stage's nodes in chain order, each from
        # its own input's row counts.
        sizes = [len(rows) for rows in units]
        side_of = iter(sides)
        for node in st.ops:
            op = node.op
            t = type(op)
            if t is ph.PhysicalHashJoin:
                inner = inners[id(node)]
                width = inner.width()
                for (seg, i_rows), probes in zip(next(side_of), sizes):
                    ex._charge_hash_side(node, seg, probes, len(i_rows), width)
                kind = ex._join_output_kind(kind, inner.kind)
                out_sizes = per_counter[st.counter_of[id(node)]]
            elif t is ph.PhysicalFilter:
                ex._charge_by_kind(
                    node, kind, sizes, sum(sizes) * p.filter_factor
                )
                out_sizes = per_counter[st.counter_of[id(node)]]
            elif t is ph.PhysicalProject:
                ex._charge_by_kind(
                    node, kind, sizes,
                    sum(sizes) * p.project_factor * len(op.projections),
                )
                out_sizes = sizes
            else:  # aggregation sink: group tables -> output rows
                cols = compiled.node_cols[id(node)]
                width = _row_width(cols)
                is_stream = isinstance(op, ph.PhysicalStreamAgg)
                sort_keys = [SortKey(c.id) for c in op.group_cols]
                code = st.sink()
                agg_buckets = []
                for _cts, groups in results:
                    if not op.group_cols and not groups:
                        # Scalar aggregation over empty input: one row.
                        groups[()] = code.init(code.bound)
                    ex._check_memory(node, len(groups), width, op.name)
                    out_rows = code.final(groups, code.bound)
                    if is_stream and op.group_cols:
                        out_rows = _sort_rows(out_rows, cols, sort_keys)
                    agg_buckets.append(out_rows)
                factor = p.cpu_tuple if is_stream else p.agg_factor
                ex._charge_by_kind(node, kind, sizes, sum(sizes) * factor)
                result = DRows(kind, cols, agg_buckets)
                out_sizes = result.bucket_sizes()
            if node is not top:
                ex._node_done(node, kind, out_sizes)
            sizes = out_sizes
        cur_buckets = [payload for _cts, payload in results]
    if result is None:
        result = DRows(kind, compiled.node_cols[id(top)], cur_buckets)
    return result
