"""The pipeline compiler: fused execution of breaker-free operator chains.

:mod:`repro.engine.pipeline` splits a physical plan at pipeline breakers
(hash-join build sides, aggregations, sorts, motions).  This module
compiles each remaining chain — scan→filter→project, probe→project,
join→agg, … — into generated Python loop functions (one per *stage*, a
chain segment headed by at most one hash-join probe) that stream rows
end-to-end without materializing intermediate ``Chunk`` batches:
filters drop rows in place, projects extend the row tuple, join probes
feed matches straight into downstream operators, and an aggregation
sink folds rows into its group table as they arrive.

The contract with the row and batch executors is strict float identity.
Work charges depend only on per-node per-bucket row counts, so the
fused path streams first (touching no metrics, only counting rows at
every operator), then **replays** the exact accounting sequence of the
batch handlers bottom-up: the same charges in the same order (including
the per-probe-row ``work += probe`` float accumulation), the same
memory checks, cardinality records, EXPLAIN ANALYZE windows, tracer
events and budget checks.  The row path stays the reference oracle;
``tests/test_fused_executor.py`` pins fused == row across the TPC-DS
corpus for rows, ExecutionMetrics and per-node NodeStats.

Compiled chains are cached on the plan root (``plan._fused_cache``).
The plan cache hands out the tree it stored, so repeated executions of
a cached plan pay compilation once; ``PlanNode.__getstate__`` strips the
cache so plans still pickle into the fleet's ``SharedPlanStore`` (a
worker that adopts an entry compiles it on its first execution and
never again).  A re-bound plan has a new root and compiles its chains
anew, but the generated stage source holds no literal (expression
closures arrive through ``_B``), so the code objects come from
``_stage_code``'s by-source memo and the closures of every untouched
expression from the stored tree.

When the executor carries a :class:`repro.engine.parallel.MorselPool`,
the streaming phase of every stage is dispatched across the pool — one
morsel per bucket/segment pair — and the results are gathered back in
bucket order, so the replay phase (and with it every metric, trace
event and NodeStats figure) is unchanged and float-identical to the
serial fused path.  See DESIGN.md §3l.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Optional

from repro.engine.columnar import REPLICATED, Chunk, DColumns, compiled_row
from repro.engine.executor import (
    _agg_add_value,
    _agg_final,
    _agg_init,
    _sort_rows,
)
from repro.engine.parallel import ChainSpec, next_chain_key
from repro.engine.pipeline import Pipeline, fusable_pipelines
from repro.ops import physical as ph
from repro.ops.logical import JoinKind
from repro.ops.scalar import ColRefExpr
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


class _Sized:
    """Duck-types the metric-facing surface of DRows/DColumns from bare
    (kind, cols, bucket sizes, buckets) so the executor's own
    ``_charge_by_kind`` / ``_charge_stage_overheads`` / ``_join_sides``
    run unchanged during streaming and replay."""

    __slots__ = ("kind", "cols", "_sizes", "buckets")

    def __init__(self, kind, cols, sizes, buckets=None):
        self.kind = kind
        self.cols = cols
        self._sizes = sizes
        self.buckets = buckets

    def bucket_sizes(self):
        return self._sizes

    def total_rows(self):
        return sum(self._sizes)

    def width(self):
        return sum(c.dtype.width for c in self.cols) or 8


def _index(cols) -> dict[int, int]:
    return {c.id: i for i, c in enumerate(cols)}


# ----------------------------------------------------------------------
# Chain compilation
# ----------------------------------------------------------------------

class _Stage:
    """One compiled chain segment: an optional leading hash-join probe,
    a run of filters/projects, and an optional aggregation sink."""

    __slots__ = (
        "join", "run", "agg", "fn", "bound", "ops_order", "counter_of",
        "l_pos", "r_pos", "pad", "n_outer", "residual_fn", "source",
    )

    def __init__(self):
        self.join: Optional[PlanNode] = None
        self.run: list[PlanNode] = []
        self.agg: Optional[PlanNode] = None
        self.fn: Optional[Callable] = None
        self.bound: tuple = ()
        self.ops_order: list[PlanNode] = []
        #: id(node) -> index into the counter tuple the stage fn returns.
        self.counter_of: dict[int, int] = {}
        self.l_pos: list[int] = []
        self.r_pos: list[int] = []
        self.pad: tuple = ()
        self.n_outer: int = 0
        self.residual_fn: Optional[Callable] = None
        self.source: str = ""


class CompiledChain:
    __slots__ = ("stages", "node_cols", "agg_node", "key", "spec")

    def __init__(self, stages, node_cols, agg_node):
        self.stages: list[_Stage] = stages
        #: id(node) -> output column layout (widths / final result).
        self.node_cols: dict[int, list] = node_cols
        self.agg_node: Optional[PlanNode] = agg_node
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
    agg_node = None
    for st in stages:
        if st.join is not None:
            op = st.join.op
            inner_cols = inners[id(st.join)].cols
            st.l_pos = [_index(cols)[c.id] for c in op.left_keys]
            st.r_pos = [_index(inner_cols)[c.id] for c in op.right_keys]
            st.pad = (None,) * len(inner_cols)
            st.n_outer = len(cols)
            if not op.kind.output_is_left_only():
                cols = list(cols) + list(inner_cols)
            # Same expression + same layout as the batch handler, so the
            # cached closure (and its float behavior) is literally shared.
            st.residual_fn = (
                compiled_row(op.residual, _index(cols))
                if op.residual is not None
                else None
            )
            node_cols[id(st.join)] = cols
        run_meta = []
        for node in st.run:
            if type(node.op) is ph.PhysicalFilter:
                run_meta.append(
                    ("filter", node,
                     compiled_row(node.op.predicate, _index(cols)))
                )
            else:
                fns = [
                    compiled_row(e, _index(cols))
                    for e, _c in node.op.projections
                ]
                cols = list(cols) + [c for _e, c in node.op.projections]
                run_meta.append(("project", node, fns))
            node_cols[id(node)] = cols
        agg_meta = None
        if st.agg is not None:
            agg_node = st.agg
            op = st.agg.op
            index = _index(cols)
            g_pos = [index[c.id] for c in op.group_cols]
            args = []
            for a, _c in op.aggs:
                pos = (
                    index.get(a.arg.ref.id)
                    if isinstance(a.arg, ColRefExpr)
                    else None
                )
                fn = (
                    compiled_row(a.arg, index)
                    if a.arg is not None and pos is None
                    else None
                )
                args.append((a, pos, fn))
            agg_meta = (g_pos, args)
            cols = list(op.group_cols) + [c for _a, c in op.aggs]
            node_cols[id(st.agg)] = cols
        _generate_stage(st, run_meta, agg_meta)
        st.ops_order = (
            ([st.join] if st.join is not None else [])
            + st.run
            + ([st.agg] if st.agg is not None else [])
        )
    return CompiledChain(stages, node_cols, agg_node)


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------

def _emit_body(body, ind, run_meta, agg_meta, bound, counters, var):
    """Emit the streaming body operating on row variable ``var``.

    A generated ``continue`` must advance to the next candidate output
    row of the enclosing loop, which every call site guarantees by
    construction.
    """
    r = var
    for kind, node, payload in run_meta:
        if kind == "filter":
            fi = len(bound)
            bound.append(payload)
            ci = counters.setdefault(id(node), len(counters))
            body.append(f"{ind}if _f{fi}({r}, _params) is not True:")
            body.append(f"{ind}    continue")
            body.append(f"{ind}_c{ci} += 1")
        else:
            calls = []
            for fn in payload:
                fi = len(bound)
                bound.append(fn)
                calls.append(f"_f{fi}({r}, _params)")
            body.append(f"{ind}{r} = {r} + ({', '.join(calls)},)")
    if agg_meta is None:
        body.append(f"{ind}_append({r})")
        return
    g_pos, args = agg_meta
    _emit_agg(body, ind, g_pos, args, bound,
              lambda p: f"{r}[{p}]", lambda fi: f"_f{fi}({r}, _params)")


def _emit_agg(body, ind, g_pos, args, bound, at, call):
    """Emit the aggregation sink: group lookup + inlined accumulators.

    ``at(pos)`` renders a positional accessor and ``call(fi)`` a bound
    closure call, parameterized so the direct probe mode can index the
    outer/build rows without concatenating them first.
    """
    if not g_pos:
        key = "()"
    else:
        key = (
            "(" + ", ".join(at(p) for p in g_pos)
            + ("," if len(g_pos) == 1 else "") + ")"
        )
    body.append(f"{ind}_gk = {key}")
    body.append(f"{ind}_st = _gget(_gk)")
    body.append(f"{ind}if _st is None:")
    body.append(f"{ind}    _st = _groups[_gk] = _ginit()")
    for j, (agg, pos, fn) in enumerate(args):
        name = agg.name
        if agg.arg is None:
            if name == "count" and not agg.distinct:
                # count(*): unconditional (mirrors _agg_add_value, which
                # increments before any NULL/DISTINCT handling).
                body.append(f"{ind}_st[{j}][0] += 1")
            else:
                ai = len(bound)
                bound.append(agg)
                body.append(f"{ind}_aav(_st[{j}], _f{ai}, 1)")
            continue
        if pos is not None:
            val = at(pos)
        else:
            fi = len(bound)
            bound.append(fn)
            val = call(fi)
        if agg.distinct or name not in ("count", "sum", "avg", "min", "max"):
            ai = len(bound)
            bound.append(agg)
            body.append(f"{ind}_aav(_st[{j}], _f{ai}, {val})")
            continue
        body.append(f"{ind}_v = {val}")
        body.append(f"{ind}if _v is not None:")
        if name == "count":
            body.append(f"{ind}    _st[{j}][0] += 1")
        elif name in ("sum", "avg"):
            body.append(f"{ind}    _a = _st[{j}][0]")
            body.append(f"{ind}    _a[0] = _v if _a[0] is None else _a[0] + _v")
            body.append(f"{ind}    _a[1] += 1")
        elif name == "min":
            body.append(f"{ind}    _s = _st[{j}]")
            body.append(f"{ind}    if _s[0] is None or _v < _s[0]:")
            body.append(f"{ind}        _s[0] = _v")
        else:  # max
            body.append(f"{ind}    _s = _st[{j}]")
            body.append(f"{ind}    if _s[0] is None or _v > _s[0]:")
            body.append(f"{ind}        _s[0] = _v")


def _key_expr(positions, row):
    if len(positions) == 1:
        return f"({row}[{positions[0]}],)"
    return "(" + ", ".join(f"{row}[{p}]" for p in positions) + ")"


def _generate_stage(st: _Stage, run_meta, agg_meta) -> None:
    bound: list = []
    counters: dict[int, int] = {}
    prologue: list[str] = []
    loop: list[str] = []
    body: list[str] = []
    has_agg = agg_meta is not None
    if has_agg:
        aggs = st.agg.op.aggs
        ii = len(bound)
        bound.append(lambda _a=aggs: [_agg_init(a) for a, _c in _a])
        prologue.append(f"    _ginit = _B[{ii}]")
        prologue.append("    _gget = _groups.get")
        ai = len(bound)
        bound.append(_agg_add_value)
        prologue.append(f"    _aav = _B[{ai}]")
    if st.join is None:
        header = "def _stage(_rows, _params, _append, _B, _groups):"
        loop.append("    for _r in _rows:")
        _emit_body(body, "        ", run_meta, agg_meta, bound, counters, "_r")
    else:
        op = st.join.op
        jk = op.kind
        jc = counters.setdefault(id(st.join), len(counters))
        header = "def _stage(_rows, _table, _params, _append, _B, _groups):"
        prologue.append("    _get = _table.get")
        lp = st.l_pos
        fast = st.residual_fn is None and jk is JoinKind.INNER
        direct = (
            fast
            and not run_meta
            and has_agg
            and all(fn is None for _a, _p, fn in agg_meta[1])
        )
        n_outer = st.n_outer
        if fast:
            loop.append("    for _row in _rows:")
            if len(lp) == 1:
                loop.append(f"        _k = _row[{lp[0]}]")
                loop.append("        if _k is None:")
                loop.append("            continue")
                loop.append("        _cands = _get((_k,))")
            elif len(lp) == 2:
                loop.append(f"        _k0 = _row[{lp[0]}]")
                loop.append(f"        _k1 = _row[{lp[1]}]")
                loop.append("        if _k0 is None or _k1 is None:")
                loop.append("            continue")
                loop.append("        _cands = _get((_k0, _k1))")
            else:
                loop.append(f"        _key = {_key_expr(lp, '_row')}")
                loop.append("        if any(_v is None for _v in _key):")
                loop.append("            continue")
                loop.append("        _cands = _get(_key)")
            loop.append("        if not _cands:")
            loop.append("            continue")
            loop.append("        for _cand in _cands:")
            body.append(f"            _c{jc} += 1")
            if direct:
                g_pos, args = agg_meta

                def _at(p, _n=n_outer):
                    return f"_row[{p}]" if p < _n else f"_cand[{p - _n}]"

                _emit_agg(body, "            ", g_pos, args, bound, _at, None)
            else:
                body.append("            _r = _row + _cand")
                _emit_body(body, "            ", run_meta, agg_meta, bound,
                           counters, "_r")
        else:
            res_fi = None
            if st.residual_fn is not None:
                res_fi = len(bound)
                bound.append(st.residual_fn)
            pi = len(bound)
            bound.append(st.pad)
            prologue.append(f"    _PAD = _B[{pi}]")
            loop.append("    for _row in _rows:")
            loop.append(f"        _key = {_key_expr(lp, '_row')}")
            nullchk = (
                "_key[0] is None" if len(lp) == 1
                else "any(_v is None for _v in _key)"
            )
            loop.append(f"        _cands = _E if {nullchk} else _get(_key, _E)")
            loop.append("        _hit = False")
            loop.append("        for _cand in _cands:")
            if res_fi is not None:
                loop.append(
                    f"            if _f{res_fi}(_row + _cand, _params)"
                    " is not True:"
                )
                loop.append("                continue")
            loop.append("            _hit = True")
            if jk is JoinKind.INNER or jk is JoinKind.LEFT:
                body.append(f"            _c{jc} += 1")
                body.append("            _r = _row + _cand")
                _emit_body(body, "            ", run_meta, agg_meta, bound,
                           counters, "_r")
            else:  # SEMI / ANTI stop at the first residual-passing match
                loop.append("            break")
            tails = {
                JoinKind.LEFT: ("if not _hit:", "_row + _PAD"),
                JoinKind.SEMI: ("if _hit:", "_row"),
                JoinKind.ANTI: ("if not _hit:", "_row"),
            }
            if jk in tails:
                cond, expr = tails[jk]
                body.append(f"        {cond}")
                body.append(f"            _c{jc} += 1")
                body.append(f"            _r = {expr}")
                _emit_body(body, "            ", run_meta, agg_meta, bound,
                           counters, "_r")
    used = re.compile(r"\b_f(\d+)\b")
    referenced = {
        int(m) for line in body + loop for m in used.findall(line)
    }
    unpack = [f"    _f{i} = _B[{i}]" for i in sorted(referenced)]
    n = len(counters)
    init = (
        ["    " + " = ".join(f"_c{i}" for i in range(n)) + " = 0"] if n else []
    )
    ret = (
        "    return ("
        + ", ".join(f"_c{i}" for i in range(n))
        + ("," if n == 1 else "")
        + ")"
    )
    src = "\n".join([header] + unpack + prologue + init + loop + body + [ret])
    code = _stage_code.get(src)
    if code is None:
        code = _stage_code[src] = compile(
            src + "\n", "<fused-pipeline>", "exec"
        )
    namespace: dict[str, Any] = {"_E": _EMPTY}
    exec(code, namespace)  # noqa: S102
    st.fn = namespace["_stage"]
    st.bound = tuple(bound)
    st.counter_of = counters
    st.source = src


def _build_table(i_rows, r_pos) -> dict:
    """Build a hash table over the join build side, key-arity
    specialized and None-key skipping exactly like the batch handler."""
    table: dict = {}
    setd = table.setdefault
    if len(r_pos) == 1:
        rp0 = r_pos[0]
        for row in i_rows:
            v = row[rp0]
            if v is not None:
                setd((v,), []).append(row)
    elif len(r_pos) == 2:
        rp0, rp1 = r_pos
        for row in i_rows:
            k0 = row[rp0]
            k1 = row[rp1]
            if k0 is not None and k1 is not None:
                setd((k0, k1), []).append(row)
    else:
        for row in i_rows:
            key = tuple(row[p] for p in r_pos)
            if not any(v is None for v in key):
                setd(key, []).append(row)
    return table


# ----------------------------------------------------------------------
# Runtime: stream, then replay the batch path's accounting
# ----------------------------------------------------------------------

def _worth_dispatching(pool, st, cur_buckets, pairs) -> bool:
    """A stage earns a pool round-trip only when it has more than one
    morsel; a single bucket would serialize through one worker and pay
    pickling for nothing.  Identity does not depend on this choice —
    the inline loop and the pool produce the same per-bucket results."""
    if st.join is None:
        return len(cur_buckets) > 1
    return pairs is not None and len(pairs) > 1


def run_chain(ex, chain: Pipeline) -> DColumns:
    """Execute one fused chain.  Called from ``Executor._exec`` in place
    of the top node's handler; the caller still owns the top node's own
    post-accounting (stage overheads, cardinality, stats window)."""
    ops = chain.ops
    top = ops[-1]
    collect = ex._collect
    m = ex.metrics
    snapshots: dict[int, tuple] = {}
    inners: dict[int, DColumns] = {}
    # Walk down in the batch recursion order: each interior node's stats
    # window opens, then (for joins) its build side executes in full.
    for node in reversed(ops):
        if collect and node is not top:
            snapshots[id(node)] = (
                list(m.segment_work), m.master_work, m.net_bytes
            )
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

    # ---- Streaming phase: no metric operations, only row counting. ----
    # With a morsel pool attached, each stage's per-bucket loop is
    # scattered across the pool (one morsel per bucket) and gathered in
    # bucket order; without one, the loops run inline.  Both paths feed
    # identical per-bucket results into the sequential replay below.
    params = ex._param_env
    pool = ex._morsel_pool
    counts: dict[int, list[int]] = {}
    kinds: dict[int, str] = {}
    sides: dict[int, list[tuple]] = {}
    groups_by_bucket: Optional[list[dict]] = None
    cur_kind = src.kind
    cur_buckets = [ch.rows() for ch in src.chunks]
    cur_sizes = src.bucket_sizes()
    for stage_idx, st in enumerate(compiled.stages):
        fn = st.fn
        bound = st.bound
        nc = len(st.counter_of)
        per_counter: list[list[int]] = [[] for _ in range(nc)]
        out_buckets: list[list[tuple]] = []
        has_agg = st.agg is not None
        glist: list[dict] = []
        prev = cur_sizes
        pairs = None
        if st.join is not None:
            inner = inners[id(st.join)]
            outer = _Sized(cur_kind, None, cur_sizes, cur_buckets)
            pairs = ex._join_sides(outer, inner)
            sides[id(st.join)] = [
                (seg, len(o_rows), i_rows) for seg, o_rows, i_rows in pairs
            ]
            cur_kind = ex._join_output_kind(outer, inner)
        if pool is not None and _worth_dispatching(pool, st, cur_buckets,
                                                  pairs):
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
                    table = tables[id(i_rows)] = _build_table(i_rows, st.r_pos)
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
        for node in st.ops_order:
            ci = st.counter_of.get(id(node))
            if ci is not None:
                sizes = per_counter[ci]
            elif type(node.op) is ph.PhysicalProject:
                sizes = prev
            else:  # agg sink: sized during replay (scalar-empty rule)
                sizes = None
            counts[id(node)] = sizes
            kinds[id(node)] = cur_kind
            if sizes is not None:
                prev = sizes
        if has_agg:
            groups_by_bucket = glist
        else:
            cur_buckets = out_buckets
        cur_sizes = prev

    # ---- Replay phase: the batch handlers' exact accounting order. ----
    p = ex.params
    prev_kind = src.kind
    prev_sizes = src.bucket_sizes()
    result: Optional[DColumns] = None
    for node in ops:
        op = node.op
        t = type(op)
        if t is ph.PhysicalFilter:
            ex._charge_by_kind(
                _Sized(prev_kind, None, prev_sizes),
                sum(prev_sizes) * p.filter_factor,
            )
        elif t is ph.PhysicalProject:
            ex._charge_by_kind(
                _Sized(prev_kind, None, prev_sizes),
                sum(prev_sizes) * p.project_factor * len(op.projections),
            )
        elif t is ph.PhysicalHashJoin:
            inner = inners[id(node)]
            hash_build = p.hash_build
            probe = p.hash_probe
            for seg, o_count, i_rows in sides[id(node)]:
                ex._check_memory(i_rows, inner.cols, "HashJoin")
                work = len(i_rows) * hash_build
                for _ in range(o_count):
                    work += probe
                if seg == -1:
                    m.charge_master(work)
                else:
                    m.charge_segment(seg, work)
        else:  # aggregation sink
            out_cols = compiled.node_cols[id(node)]
            aggs = op.aggs
            is_stream = isinstance(op, ph.PhysicalStreamAgg)
            factor = p.cpu_tuple if is_stream else p.agg_factor
            sort_keys = [SortKey(c.id) for c in op.group_cols]
            chunks = []
            sizes = []
            for groups in groups_by_bucket:
                if not op.group_cols and not groups:
                    # Scalar aggregation over empty input: one row.
                    groups[()] = [_agg_init(a) for a, _c in aggs]
                ex._check_memory(list(groups), out_cols, op.name)
                out_rows = [
                    key + tuple(
                        _agg_final(slot, agg)
                        for slot, (agg, _c) in zip(state, aggs)
                    )
                    for key, state in groups.items()
                ]
                if is_stream and op.group_cols:
                    out_rows = _sort_rows(out_rows, out_cols, sort_keys)
                chunks.append(Chunk.from_rows(out_rows))
                sizes.append(len(out_rows))
            ex._charge_by_kind(
                _Sized(prev_kind, None, prev_sizes), sum(prev_sizes) * factor
            )
            counts[id(node)] = sizes
            result = DColumns(kinds[id(node)], out_cols, chunks)
        cur_sizes = counts[id(node)]
        cur_kind = kinds[id(node)]
        if node is not top:
            total = sum(cur_sizes)
            ex._charge_stage_overheads(
                _Sized(cur_kind, compiled.node_cols[id(node)], cur_sizes)
            )
            m.cardinalities.append((repr(op), node.rows_estimate, total))
            if collect:
                snap = snapshots[id(node)]
                stats = ex._analysis.stats_for(node)
                for i in range(m.segments):
                    stats.seg_work[i] += m.segment_work[i] - snap[0][i]
                stats.master_work += m.master_work - snap[1]
                stats.net_bytes += m.net_bytes - snap[2]
                stats.loops += 1
                stats.rows_out += total
            if ex.tracer.enabled:
                ex.tracer.record(
                    "operator_executed",
                    op=op.name, rows_out=total,
                    rows_estimated=node.rows_estimate,
                )
            m.check_budget()
        prev_kind, prev_sizes = cur_kind, cur_sizes
    if result is None:
        result = DColumns(
            cur_kind,
            compiled.node_cols[id(top)],
            [Chunk.from_rows(b) for b in cur_buckets],
        )
    return result


# ----------------------------------------------------------------------
# Fused-engine scan: cluster-cached base-table distribution
# ----------------------------------------------------------------------

def _f_scan(ex, node) -> DColumns:
    """Table scan serving packed chunks from the cluster's scan cache.

    Distributing a stored table is a pure function of (table,
    partitions, columns, segments), so the fused engine hashes and
    packs it once per cluster.  Every metric the batch scan issues —
    partition/row counters and the per-segment scan charges — is still
    issued per execution, in the same order, from the cached sizes.
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
    hit = ex.cluster.scan_cache.get(key)
    if ex.tracer.enabled:
        ex.tracer.record(
            "scan_cache_hit" if hit is not None else "scan_cache_miss",
            table=op.table.name,
            partitions=len(parts),
        )
    if hit is None:
        rows = ex.cluster.db.scan(op.table.name, parts)
        result = ex._distribute(op, rows)
        dtypes = [c.dtype for c in result.cols]
        hit = ex.cluster.scan_cache[key] = (
            len(rows),
            DColumns(
                result.kind,
                result.cols,
                [Chunk.from_rows(b, dtypes) for b in result.buckets],
            ),
        )
    n_rows, out = hit
    ex.metrics.rows_scanned += n_rows
    if out.kind == REPLICATED:
        ex.metrics.charge_all_segments(n_rows * ex.params.scan_tuple)
    else:
        for i, ch in enumerate(out.chunks):
            ex.metrics.charge_segment(i, ch.n * ex.params.scan_tuple)
    return out


FUSED_HANDLERS = {
    ph.PhysicalTableScan: _f_scan,
    ph.PhysicalDynamicTableScan: _f_scan,
}
