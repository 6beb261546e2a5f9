"""The compiled engine: every pipeline of a plan runs as generated code.

:mod:`repro.engine.pipeline` splits a physical plan at pipeline breakers
(hash-join build sides, aggregations, sorts, motions).  This module
compiles every chain that is left — scan→filter→project, probe→project,
join→agg, a lone filter — into generated Python loop functions (one per
*stage*, a chain segment headed by at most one hash-join probe) that
stream rows end-to-end without materializing anything in between:
filters drop rows in place, projects extend the row tuple, join probes
feed matches straight into downstream operators, and an aggregation
sink folds rows into its group table as they arrive.  Filter, Project,
HashJoin and both aggregations therefore never run through a handler in
``FUSED`` mode; what does is the breakers, on the row interpreter's own
handlers, except the three in :data:`FUSED_HANDLERS` at the bottom of
this file (the cached table scan, the index scan with a compiled
residual and the nested-loops join with a generated pair loop).  Every
handler and :func:`run_chain` hand ``DRows`` to whatever is above them.

The loops are compiled through, expressions included: filter
predicates, projections, aggregate arguments and join residuals are
rendered by :class:`repro.engine.columnar.Emitter` and inlined into the
stage source, so a stage calls no Python function per row (an
expression kind the emitter does not know keeps an ``evaluate()``
closure, and a DISTINCT aggregate its ``_agg_add_value`` call).  Next
to ``_stage`` the same source defines ``_build`` (build rows -> hash
table) for a join stage and ``_init`` / ``_final`` (a fresh group
state, groups -> output rows) for a sink stage, so the shapes they
share are decided once:

- *keys*: one emitter for build and probe at any arity; a one-column
  join or group key is the bare value, two or more a tuple (a group
  key is widened back to a tuple when its row is finalized);
- *aggregate state*: one flat list per group with a literal
  initializer in the source — ``count``, ``sum``, ``min`` and ``max``
  one cell each, ``avg`` two (sum, n); sums stay ``_a + _v`` in arrival
  order, so floats are ``==`` the row path's;
- *rows*: a residual reads the probe row and the build row in place,
  and the joined row is built only for a pair that passed — not at all
  when nothing stands between the probe and the sink.

The contract with the row interpreter (``ExecutionMode.ROW``, the
reference every differential test compares against) is strict float
identity, and it holds by construction: every charge is a closed-form
function of per-node per-bucket row counts, booked on the node that
incurs it (``ExecutionMetrics.ledger``).  A stage streams first,
touching no metric and only counting rows at every operator; then its
nodes are charged bottom-up from those counts through the same
executor helpers the row handlers call (``_charge_by_kind``,
``_charge_hash_side``, ``_check_memory``) and closed with the same
``_node_done``.  ``tests/test_fused_executor.py`` pins fused == row
across the TPC-DS corpus for rows, ExecutionMetrics and per-node
NodeStats.

Compiled chains are cached on the plan root (``plan._fused_cache``).
The plan cache hands out the tree it stored, so repeated executions of
a cached plan pay compilation once; ``PlanNode.__getstate__`` strips the
cache so plans still pickle into the fleet's ``SharedPlanStore`` (a
worker that adopts an entry compiles it on its first execution and
never again).  A re-bound plan has a new root and compiles its chains
anew, but the generated source holds no constant except SQL ``NULL``:
literal values, ``IN`` lists, ``LIKE`` matchers, NULL pads and DISTINCT
aggregates arrive through ``_B``.  The code objects therefore come from
``_stage_code``'s by-source memo — one entry per stage *shape* — and a
re-bind does not reach the Python compiler.

When the executor carries a :class:`repro.engine.parallel.MorselPool`,
the streaming phase of every stage is dispatched across the pool — one
morsel per bucket/segment pair — and the results are gathered back in
bucket order, so the charges (and with them every metric, trace event
and NodeStats figure) are float-identical to the serial fused path.
See DESIGN.md §3l.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.engine.columnar import (
    Emitter,
    Layout,
    _layout_key,
    _row_code,
    compiled_row,
    load_generated,
    row_cached,
)
from repro.engine.executor import (
    DRows,
    _agg_add_value,
    _agg_final,
    _agg_init,
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
#: positions), never per literal, so the workload's plan shapes bound it.
_stage_code: dict[str, Any] = {}


def fused_chains(plan: PlanNode) -> dict[int, Pipeline]:
    """Map ``id(top node) -> Pipeline`` for every fusable chain of
    ``plan``, cached on the plan root (stripped on pickle)."""
    cache = plan.__dict__.get("_fused_cache")
    if cache is None:
        cache = {id(p.top): p for p in fusable_pipelines(plan)}
        plan._fused_cache = cache
    return cache


def _index(cols) -> dict[int, int]:
    return {c.id: i for i, c in enumerate(cols)}


# ----------------------------------------------------------------------
# Chain compilation
# ----------------------------------------------------------------------

class _Stage:
    """One compiled chain segment: an optional leading hash-join probe,
    a run of filters/projects, and an optional aggregation sink."""

    __slots__ = (
        "join", "run", "agg", "fn", "build", "init", "final", "bound",
        "ops_order", "counter_of", "source",
    )

    def __init__(self):
        self.join: Optional[PlanNode] = None
        self.run: list[PlanNode] = []
        self.agg: Optional[PlanNode] = None
        #: The generated functions: the streaming loop; for a join
        #: stage, build rows -> hash table; for a sink stage, a fresh
        #: group state and groups -> output rows.
        self.fn: Optional[Callable] = None
        self.build: Optional[Callable] = None
        self.init: Optional[Callable] = None
        self.final: Optional[Callable] = None
        self.bound: tuple = ()
        self.ops_order: list[PlanNode] = []
        #: id(node) -> index into the counter tuple the stage fn returns.
        self.counter_of: dict[int, int] = {}
        self.source: str = ""


class CompiledChain:
    __slots__ = ("stages", "node_cols", "key", "spec")

    def __init__(self, stages, node_cols):
        self.stages: list[_Stage] = stages
        #: id(node) -> output column layout (widths / final result).
        self.node_cols: dict[int, list] = node_cols
        #: Process-unique id the morsel pool keys worker compile caches
        #: by, and the picklable compile recipe shipped to each worker
        #: (at most once per worker); both set by :func:`run_chain`.
        self.key: int = 0
        self.spec: Optional[ChainSpec] = None


def _partition_stages(ops: list[PlanNode]) -> list[_Stage]:
    stages = [_Stage()]
    for node in ops:
        t = type(node.op)
        if t is ph.PhysicalHashJoin:
            st = _Stage()
            st.join = node
            stages.append(st)
        elif t in (ph.PhysicalHashAgg, ph.PhysicalStreamAgg):
            stages[-1].agg = node
        else:
            stages[-1].run.append(node)
    first = stages[0]
    if first.join is None and not first.run and first.agg is None:
        stages.pop(0)
    return stages


def _compile_chain(chain: Pipeline, src_cols, inners) -> CompiledChain:
    cols = list(src_cols)
    node_cols: dict[int, list] = {}
    stages = _partition_stages(chain.ops)
    for st in stages:
        inner_cols = (
            list(inners[id(st.join)].cols) if st.join is not None else None
        )
        cols = _StageGen(st, node_cols).generate(cols, inner_cols)
        st.ops_order = (
            ([st.join] if st.join is not None else [])
            + st.run
            + ([st.agg] if st.agg is not None else [])
        )
    return CompiledChain(stages, node_cols)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

def _tuple(items) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _emit_key(out, ind, positions, row) -> tuple[str, str]:
    """The one key path, for the build loop and the probe loop at any
    arity: bind each key column of ``row`` to ``_k<i>`` and return (the
    any-is-NULL test, the key).  A single-column key is the bare value;
    two or more make a tuple."""
    names = [f"_k{i}" for i in range(len(positions))]
    for name, pos in zip(names, positions):
        out.append(f"{ind}{name} = {row}[{pos}]")
    null = " or ".join(f"{name} is None" for name in names) or "False"
    return null, names[0] if len(names) == 1 else _tuple(names)


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
    """The flat per-group state of an aggregation sink: one list per
    group, each aggregate's cells at a fixed offset."""

    def __init__(self, op, em: Emitter):
        self.op = op
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
        #: List display that creates a new group's state.
        self.init = "[" + ", ".join(init) + "]"
        #: Stage prologue: a scalar aggregation has one group, found
        #: once per call and not once per row.
        self.head = (
            "    _gget = _groups.get" if op.group_cols else "    _st = None"
        )

    def emit_fold(self, out, ind, em: Emitter, layout: Layout) -> None:
        """Emit the group lookup and one row's fold into its state."""
        g_pos = [layout.index[c.id] for c in self.op.group_cols]
        if not g_pos:
            out.append(f"{ind}if _st is None:")
            out.append(f"{ind}    _st = _groups[()] = {self.init}")
        else:
            keys = [layout.at(p) for p in g_pos]
            out.append(
                f"{ind}_gk = {keys[0] if len(keys) == 1 else _tuple(keys)}"
            )
            out.append(f"{ind}_st = _gget(_gk)")
            out.append(f"{ind}if _st is None:")
            out.append(f"{ind}    _st = _groups[_gk] = {self.init}")
        for agg, o, slot in self.cells:
            # count(*) folds the constant 1 (mirrors _agg_add).
            val = "1" if agg.arg is None else em.value(agg.arg, layout)
            if slot is not None:
                out.append(f"{ind}_agg_add_value(_st[{o}], _f{slot}, {val})")
            elif agg.arg is None and agg.name == "count":
                out.append(f"{ind}_st[{o}] += 1")
            elif agg.name == "count":
                out.append(f"{ind}if {val} is not None:")
                out.append(f"{ind}    _st[{o}] += 1")
            else:
                out.append(f"{ind}_v = {val}")
                out.append(f"{ind}if _v is not None:")
                out.append(f"{ind}    _a = _st[{o}]")
                if agg.name in ("sum", "avg"):
                    out.append(
                        f"{ind}    _st[{o}] = _v if _a is None else _a + _v"
                    )
                    if agg.name == "avg":
                        out.append(f"{ind}    _st[{o + 1}] += 1")
                else:
                    cmp = "<" if agg.name == "min" else ">"
                    out.append(f"{ind}    if _a is None or _v {cmp} _a:")
                    out.append(f"{ind}        _st[{o}] = _v")

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
    """Generates one stage's source: the streaming loop ``_stage``,
    plus ``_build`` for a join stage and ``_init`` / ``_final`` for a
    sink stage."""

    def __init__(self, st: _Stage, node_cols: dict[int, list]):
        self.st = st
        self.node_cols = node_cols
        self.em = Emitter()
        self.counters: dict[int, int] = {}
        self.state = (
            _AggState(st.agg.op, self.em) if st.agg is not None else None
        )

    def counter(self, node) -> str:
        return f"_c{self.counters.setdefault(id(node), len(self.counters))}"

    def emit_row(self, out, ind, cols, split=None, row=None) -> list:
        """Emit what one candidate output row goes through: the stage's
        filters and projects over ``_r`` (assigned from ``row``), then
        the sink or ``_append``.  With ``split`` there is nothing
        between probe and sink and the fold reads the ``_row`` /
        ``_cand`` pair as it stands.  Returns the output columns.

        A generated ``continue`` must advance to the next candidate
        output row of the enclosing loop, which every call site
        guarantees by construction.
        """
        em = self.em
        if self.state is None and not self.st.run:
            out.append(f"{ind}_append({row or '_r'})")
            return cols
        if row is not None:
            out.append(f"{ind}_r = {row}")
        layout = Layout(_index(cols))
        for node in self.st.run:
            op = node.op
            if type(op) is ph.PhysicalFilter:
                out.append(f"{ind}if not {em.truth(op.predicate, layout)}:")
                out.append(f"{ind}    continue")
                out.append(f"{ind}{self.counter(node)} += 1")
            else:
                values = [em.value(e, layout) for e, _c in op.projections]
                out.append(f"{ind}_r = _r + {_tuple(values)}")
                cols = cols + [c for _e, c in op.projections]
                layout = Layout(_index(cols))
            self.node_cols[id(node)] = cols
        if self.state is None:
            out.append(f"{ind}_append(_r)")
            return cols
        self.state.emit_fold(out, ind, em, Layout(layout.index, split))
        op = self.st.agg.op
        cols = list(op.group_cols) + [c for _a, c in op.aggs]
        self.node_cols[id(self.st.agg)] = cols
        return cols

    def generate(self, cols: list, inner_cols: Optional[list]) -> list:
        """Compile the stage over input columns ``cols`` (``inner_cols``:
        its join's build side); returns the stage's output columns."""
        st = self.st
        head: list[str] = []
        loop: list[str] = []
        defs: list[str] = []
        if self.state is not None:
            head.append(self.state.head)
            defs = self.state.emit_defs()
        if st.join is None:
            header = "def _stage(_rows, _params, _append, _B, _groups):"
            loop.append("    for _r in _rows:")
            cols = self.emit_row(loop, "        ", cols)
        else:
            header = "def _stage(_rows, _table, _params, _append, _B, _groups):"
            cols = self._emit_probe(head, loop, defs, cols, inner_cols)
        n = len(self.counters)
        names = [f"_c{i}" for i in range(n)]
        if n:
            head.append("    " + " = ".join(names) + " = 0")
        src = "\n".join(
            [header] + self.em.unpack() + head + loop
            + [f"    return {_tuple(names)}"] + defs
        ) + "\n"
        namespace = load_generated(
            src, "<fused-pipeline>", _stage_code,
            _E=_EMPTY, _agg_init=_agg_init, _agg_add_value=_agg_add_value,
            _agg_final=_agg_final,
        )
        st.fn = namespace["_stage"]
        st.build = namespace.get("_build")
        st.init = namespace.get("_init")
        st.final = namespace.get("_final")
        st.bound = tuple(self.em.bound)
        st.counter_of = self.counters
        st.source = src
        return cols

    def _emit_probe(self, head, loop, defs, cols, inner_cols) -> list:
        """Emit the probe loop of a hash-join stage (and ``_build``)."""
        st = self.st
        em = self.em
        op = st.join.op
        jk = op.kind
        hits = self.counter(st.join)
        n_outer = len(cols)
        outer_index, inner_index = _index(cols), _index(inner_cols)
        l_pos = [outer_index[c.id] for c in op.left_keys]
        r_pos = [inner_index[c.id] for c in op.right_keys]
        left_only = jk.output_is_left_only()
        out_cols = cols if left_only else cols + inner_cols
        self.node_cols[id(st.join)] = out_cols
        # The residual reads both sides in place, whatever the join
        # puts out (a SEMI / ANTI join's rows have no build side; its
        # residual may still read one); the output row is only built
        # for a pair that passed, and not at all when the stage folds
        # the pair straight into its sink.
        ind = "            "
        passes: list[str] = []
        if op.residual is not None:
            test = em.truth(
                op.residual, Layout(_index(cols + inner_cols), n_outer)
            )
            passes = [f"{ind}if not {test}:", f"{ind}    continue"]
        split = (
            n_outer
            if not st.run and self.state is not None and not left_only
            else None
        )
        joined = None if split is not None else "_row + _cand"

        defs += [
            "def _build(_rows):",
            "    _table = {}",
            "    _setd = _table.setdefault",
            "    for _cand in _rows:",
        ]
        null, key = _emit_key(defs, "        ", r_pos, "_cand")
        defs += [
            f"        if not ({null}):",
            f"            _setd({key}, []).append(_cand)",
            "    return _table",
        ]

        head.append("    _get = _table.get")
        loop.append("    for _row in _rows:")
        null, key = _emit_key(loop, "        ", l_pos, "_row")
        if jk is JoinKind.INNER:
            loop.append(f"        if {null}:")
            loop.append("            continue")
            loop.append(f"        for _cand in _get({key}, _E):")
            loop += passes
            loop.append(f"{ind}{hits} += 1")
            return self.emit_row(loop, ind, out_cols, split, joined)
        loop.append(f"        _cands = _E if {null} else _get({key}, _E)")
        loop.append("        _hit = False")
        loop.append("        for _cand in _cands:")
        loop += passes
        loop.append(f"{ind}_hit = True")
        if jk is JoinKind.LEFT:
            loop.append(f"{ind}{hits} += 1")
            self.emit_row(loop, ind, out_cols, split, joined)
        else:  # SEMI / ANTI stop at the first residual-passing match
            loop.append(f"{ind}break")
        loop.append("        if _hit:" if jk is JoinKind.SEMI
                    else "        if not _hit:")
        loop.append(f"{ind}{hits} += 1")
        if jk is not JoinKind.LEFT:
            return self.emit_row(loop, ind, out_cols, row="_row")
        pad = em.bind((None,) * len(inner_cols))
        if split is not None:
            loop.append(f"{ind}_cand = {pad}")
            return self.emit_row(loop, ind, out_cols, split)
        return self.emit_row(loop, ind, out_cols, row=f"_row + {pad}")


# ----------------------------------------------------------------------
# Runtime: stream each stage, then charge its nodes from their row counts
# ----------------------------------------------------------------------

def _worth_dispatching(st, cur_buckets, pairs) -> bool:
    """A stage earns a pool round-trip only when it has more than one
    morsel; a single bucket would serialize through one worker and pay
    pickling for nothing.  Identity does not depend on this choice —
    the inline loop and the pool produce the same per-bucket results."""
    if st.join is None:
        return len(cur_buckets) > 1
    return pairs is not None and len(pairs) > 1


def run_chain(ex, chain: Pipeline) -> DRows:
    """Execute one fused chain.  Called from ``Executor._exec`` in place
    of the top node's handler; the caller closes the top node
    (``Executor._node_done``), this closes every node below it."""
    ops = chain.ops
    top = ops[-1]
    inners: dict[int, DRows] = {}
    # Build sides first, outermost join first: the row path's order.
    for node in reversed(ops):
        if type(node.op) is ph.PhysicalHashJoin:
            inner = ex._exec(node.children[1])
            ex._publish_selectors(inner)
            inners[id(node)] = inner
    src = ex._exec(chain.source)
    compiled = chain.compiled
    if compiled is None:
        with ex.tracer.span("fused:compile", ops=len(ops)):
            compiled = chain.compiled = _compile_chain(
                chain, src.cols, inners
            )
        # The morsel-pool handshake: a process-unique key plus the
        # picklable recipe workers recompile from (deterministic
        # codegen, so worker stage functions and counter indices match
        # this process's compilation exactly).
        compiled.key = next_chain_key()
        compiled.spec = ChainSpec(
            ops=[n.op for n in ops],
            src_cols=list(src.cols),
            inner_cols=[
                (i, list(inners[id(n)].cols))
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

    # With a morsel pool attached, each stage's per-bucket loop is
    # scattered across the pool (one morsel per bucket) and gathered in
    # bucket order; without one, the loops run inline.  Both paths yield
    # identical per-bucket rows and counters, which is all the charges
    # below read.
    params = ex._param_env
    pool = ex._morsel_pool
    p = ex.params
    kind = src.kind
    cur_buckets = src.buckets
    sizes = src.bucket_sizes()
    result: Optional[DRows] = None
    for stage_idx, st in enumerate(compiled.stages):
        fn = st.fn
        bound = st.bound
        nc = len(st.counter_of)
        per_counter: list[list[int]] = [[] for _ in range(nc)]
        out_buckets: list[list[tuple]] = []
        has_agg = st.agg is not None
        glist: list[dict] = []
        pairs = None
        if st.join is not None:
            inner = inners[id(st.join)]
            pairs = ex._join_sides(kind, cur_buckets, inner)
            kind = ex._join_output_kind(kind, inner.kind)
        if pool is not None and _worth_dispatching(st, cur_buckets, pairs):
            if st.join is None:
                morsels = [(rows, None) for rows in cur_buckets]
            else:
                morsels = [(o_rows, i_rows) for _s, o_rows, i_rows in pairs]
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
            for cts, payload in results:
                if has_agg:
                    glist.append(payload)
                else:
                    out_buckets.append(payload)
                for i in range(nc):
                    per_counter[i].append(cts[i])
        elif st.join is None:
            for rows in cur_buckets:
                if has_agg:
                    groups: dict = {}
                    glist.append(groups)
                    cts = fn(rows, params, None, bound, groups)
                else:
                    out: list[tuple] = []
                    cts = fn(rows, params, out.append, bound, None)
                    out_buckets.append(out)
                for i in range(nc):
                    per_counter[i].append(cts[i])
        else:
            tables: dict[int, dict] = {}
            for seg, o_rows, i_rows in pairs:
                table = tables.get(id(i_rows))
                if table is None:
                    table = tables[id(i_rows)] = st.build(i_rows)
                if has_agg:
                    groups = {}
                    glist.append(groups)
                    cts = fn(o_rows, table, params, None, bound, groups)
                else:
                    out = []
                    cts = fn(o_rows, table, params, out.append, bound, None)
                    out_buckets.append(out)
                for i in range(nc):
                    per_counter[i].append(cts[i])

        # Charge and close the stage's nodes bottom-up, each from the
        # row counts its row handler would charge it from.
        for node in st.ops_order:
            op = node.op
            t = type(op)
            if t is ph.PhysicalHashJoin:
                cols = inners[id(node)].cols
                for seg, o_rows, i_rows in pairs:
                    ex._charge_hash_side(node, seg, len(o_rows), i_rows, cols)
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
                is_stream = isinstance(op, ph.PhysicalStreamAgg)
                sort_keys = [SortKey(c.id) for c in op.group_cols]
                agg_buckets = []
                for groups in glist:
                    if not op.group_cols and not groups:
                        # Scalar aggregation over empty input: one row.
                        groups[()] = st.init(bound)
                    ex._check_memory(node, list(groups), cols, op.name)
                    out_rows = st.final(groups, bound)
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
        cur_buckets = out_buckets
    if result is None:
        result = DRows(kind, compiled.node_cols[id(top)], cur_buckets)
    return result


# ----------------------------------------------------------------------
# Handlers outside a chain: the three the row interpreter's are not
# good enough for.  Each issues its row counterpart's charges.
# ----------------------------------------------------------------------

def _f_scan(ex, node) -> DRows:
    """Table scan served from the cluster's scan cache.

    Distributing a stored table is a pure function of (table,
    partitions, columns, segments) and the table's rows, so it is
    hashed once per cluster and row-data version: a layout cached
    before an insert / truncate is recomputed and replaced.  Every
    metric the row scan issues — partition/row counters and the
    per-segment scan charges — is still issued per execution, in the
    same order, from the cached sizes.
    """
    op = node.op
    parts = ex._partition_ids(op)
    ex.metrics.partitions_scanned += len(parts)
    key = (
        op.table.name,
        tuple(parts),
        tuple(c.id for c in op.columns),
        ex.cluster.segments,
    )
    version = ex.cluster.db.data_version(op.table.name)
    hit = ex.cluster.scan_cache.get(key)
    if hit is not None and hit[0] != version:
        hit = None
    if ex.tracer.enabled:
        ex.tracer.record(
            "scan_cache_hit" if hit is not None else "scan_cache_miss",
            table=op.table.name,
            partitions=len(parts),
        )
    if hit is None:
        rows = ex.cluster.db.scan(op.table.name, parts)
        hit = ex.cluster.scan_cache[key] = (
            version, len(rows), ex._distribute(op, rows)
        )
    _, n_rows, out = hit
    ex.metrics.rows_scanned += n_rows
    ex._charge_by_kind(
        node, out.kind, out.bucket_sizes(), n_rows * ex.params.scan_tuple
    )
    return out


def _f_index_scan(ex, node) -> DRows:
    op = node.op
    result = ex._index_fetch(node)
    if op.residual is None:
        return result
    keep = compiled_row(op.residual, _index(result.cols))
    params = ex._param_env
    return DRows(
        result.kind,
        result.cols,
        [[r for r in b if keep(r, params) is True] for b in result.buckets],
    )


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
        cond = em.truth(op.condition, Layout(index, n_outer))
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


def _f_nl_join(ex, node) -> DRows:
    op = node.op
    outer = ex._exec(node.children[0])
    inner = ex._exec(node.children[1])
    left_only = op.kind.output_is_left_only()
    out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
        inner.cols
    )
    null_pad = (None,) * len(inner.cols)
    kind = ex._join_output_kind(outer.kind, inner.kind)
    n_outer = len(outer.cols)
    index = _index(list(outer.cols) + list(inner.cols))
    cond = op.condition

    def make():
        return _nl_loop(op, n_outer, index)

    loop, bound = make() if cond is None else row_cached(
        cond, ("nl", op.kind, n_outer) + _layout_key(cond, index), make
    )
    params = ex._param_env
    nl_factor = ex.params.nl_factor
    out_buckets = []
    for seg, o_rows, i_rows in ex._join_sides(outer.kind, outer.buckets, inner):
        bucket = []
        pairs = loop(o_rows, i_rows, params, null_pad, bucket.append, bound)
        ex._charge_at(node, seg, pairs * nl_factor)
        out_buckets.append(bucket)
        ex.metrics.check_budget()
    return DRows(kind, out_cols, out_buckets)


#: What FUSED mode lays over the row interpreter's handler table.
FUSED_HANDLERS = {
    ph.PhysicalTableScan: _f_scan,
    ph.PhysicalDynamicTableScan: _f_scan,
    ph.PhysicalIndexScan: _f_index_scan,
    ph.PhysicalNLJoin: _f_nl_join,
}
