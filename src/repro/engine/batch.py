"""Batch (columnar) executor handlers.

Each handler here replaces a row-at-a-time handler from
:mod:`repro.engine.executor` with a column-batch implementation built on
the compiled expression closures of :mod:`repro.engine.columnar`.  The
contract is strict: every handler issues the *exact same sequence* of
metric operations (per-segment/master work charges, network bytes, row
counters, memory checks) as its row-path counterpart, so
:class:`~repro.engine.metrics.ExecutionMetrics`, EXPLAIN ANALYZE windows
and TAQO scores are float-identical between the two modes — only the
interpretation overhead changes.

Operators without a batch form (merge join, NL joins, window, sorts,
motions, CTEs, ...) keep their row handlers; ``Executor._exec`` lifts
their ``DRows`` results into lazy :class:`~repro.engine.columnar.DColumns`
so the two kinds compose freely inside one plan.
"""

from __future__ import annotations

from repro.engine.columnar import (
    REPLICATED,
    Chunk,
    DColumns,
    Emitter,
    Layout,
    _layout_key,
    _row_code,
    compiled_row,
    compiled_vector,
    load_generated,
    row_cached,
)
from repro.engine.executor import (
    _agg_add_value,
    _agg_final,
    _agg_init,
    _sort_rows,
)
from repro.ops import physical as ph
from repro.ops.logical import JoinKind
from repro.props.order import SortKey

_EMPTY: tuple = ()


def _index(cols) -> dict[int, int]:
    return {c.id: i for i, c in enumerate(cols)}


# ----------------------------------------------------------------------
# Scans
# ----------------------------------------------------------------------

def _b_scan(ex, node) -> DColumns:
    op = node.op
    rows = ex._scan_rows(op)
    result = ex._distribute(op, rows)
    if result.kind == REPLICATED:
        ex.metrics.charge_all_segments(len(rows) * ex.params.scan_tuple)
    else:
        for i, bucket in enumerate(result.buckets):
            ex.metrics.charge_segment(i, len(bucket) * ex.params.scan_tuple)
    # Typed, NULL-free columns are array-packed on first columnar access.
    dtypes = [c.dtype for c in result.cols]
    return DColumns(
        result.kind,
        result.cols,
        [Chunk.from_rows(b, dtypes) for b in result.buckets],
    )


def _b_index_scan(ex, node) -> DColumns:
    op = node.op
    result = ex._index_fetch(op)
    dtypes = [c.dtype for c in result.cols]
    out = DColumns(
        result.kind,
        result.cols,
        [Chunk.from_rows(b, dtypes) for b in result.buckets],
    )
    if op.residual is not None:
        fn = compiled_vector(op.residual, _index(out.cols))
        out = _filter_batch(out, fn, ex._param_env)
    return out


# ----------------------------------------------------------------------
# Filter / Project
# ----------------------------------------------------------------------

def _filter_batch(child: DColumns, fn, params) -> DColumns:
    out_chunks = []
    for ch in child.chunks:
        n = ch.n
        if n == 0:
            out_chunks.append(ch)
            continue
        mask = fn(ch, n, params)
        if ch.row_major:
            out_chunks.append(Chunk.from_rows(
                [r for r, m in zip(ch.rows(), mask) if m is True]
            ))
        else:
            sel = [i for i, m in enumerate(mask) if m is True]
            out_chunks.append(Chunk.from_columns(
                [[c[i] for i in sel] for c in ch.columns()], len(sel)
            ))
    return DColumns(child.kind, child.cols, out_chunks)


def _b_filter(ex, node) -> DColumns:
    child = ex._exec(node.children[0])
    fn = compiled_vector(node.op.predicate, _index(child.cols))
    result = _filter_batch(child, fn, ex._param_env)
    ex._charge_by_kind(child, child.total_rows() * ex.params.filter_factor)
    return result


def _b_project(ex, node) -> DColumns:
    child = ex._exec(node.children[0])
    projections = node.op.projections
    index = _index(child.cols)
    out_cols = list(child.cols) + [c for _e, c in projections]
    fns = [compiled_vector(e, index) for e, _c in projections]
    params = ex._param_env
    out_chunks = []
    for ch in child.chunks:
        n = ch.n
        if not fns or n == 0:
            out_chunks.append(ch if not fns else Chunk.from_columns(
                list(ch.columns()) + [[] for _ in fns], 0
            ))
            continue
        vecs = [fn(ch, n, params) for fn in fns]
        if ch.row_major:
            rows = ch.rows()
            if len(vecs) == 1:
                vec = vecs[0]
                out_chunks.append(Chunk.from_rows(
                    [r + (v,) for r, v in zip(rows, vec)]
                ))
            else:
                out_chunks.append(Chunk.from_rows(
                    [r + t for r, t in zip(rows, zip(*vecs))]
                ))
        else:
            # Column-major input: extend with the computed columns,
            # sharing the existing ones (zero copy).
            out_chunks.append(Chunk.from_columns(
                list(ch.columns()) + vecs, n
            ))
    ex._charge_by_kind(
        child,
        child.total_rows() * ex.params.project_factor * len(projections),
    )
    return DColumns(child.kind, out_cols, out_chunks)


# ----------------------------------------------------------------------
# Hash join
# ----------------------------------------------------------------------

def _b_hash_join(ex, node) -> DColumns:
    op = node.op
    inner = ex._exec(node.children[1])
    ex._publish_selectors(inner)
    outer = ex._exec(node.children[0])
    l_pos = [_index(outer.cols)[c.id] for c in op.left_keys]
    r_pos = [_index(inner.cols)[c.id] for c in op.right_keys]
    left_only = op.kind.output_is_left_only()
    out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
        inner.cols
    )
    null_pad = (None,) * len(inner.cols)
    residual_fn = (
        compiled_row(op.residual, _index(out_cols))
        if op.residual is not None
        else None
    )
    params = ex._param_env
    kind = ex._join_output_kind(outer, inner)
    jk = op.kind
    hash_build = ex.params.hash_build
    probe = ex.params.hash_probe
    metrics = ex.metrics
    nkeys = len(r_pos)
    single = nkeys == 1
    double = nkeys == 2
    rp0 = r_pos[0] if r_pos else None
    lp0 = l_pos[0] if l_pos else None
    rp1 = r_pos[1] if double else None
    lp1 = l_pos[1] if double else None
    out_buckets = []
    for seg, o_rows, i_rows in ex._join_sides(outer, inner):
        ex._check_memory(i_rows, inner.cols, "HashJoin")
        table: dict[tuple, list[tuple]] = {}
        setd = table.setdefault
        if single:
            for row in i_rows:
                v = row[rp0]
                if v is not None:
                    setd((v,), []).append(row)
        elif double:
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
        work = len(i_rows) * hash_build
        matched: list[tuple] = []
        append = matched.append
        get = table.get
        if residual_fn is None and jk is JoinKind.INNER:
            # Fast path: no residual, no unmatched-row bookkeeping.  The
            # per-row `work += probe` accumulation is kept so the float
            # total matches the reference loop bit for bit.
            if single:
                for row in o_rows:
                    work += probe
                    v = row[lp0]
                    if v is not None:
                        cands = get((v,))
                        if cands:
                            for cand in cands:
                                append(row + cand)
            elif double:
                for row in o_rows:
                    work += probe
                    k0 = row[lp0]
                    k1 = row[lp1]
                    if k0 is not None and k1 is not None:
                        cands = get((k0, k1))
                        if cands:
                            for cand in cands:
                                append(row + cand)
            else:
                for row in o_rows:
                    work += probe
                    key = tuple(row[p] for p in l_pos)
                    if not any(v is None for v in key):
                        cands = get(key)
                        if cands:
                            for cand in cands:
                                append(row + cand)
        else:
            for row in o_rows:
                if single:
                    key = (row[lp0],)
                elif double:
                    key = (row[lp0], row[lp1])
                else:
                    key = tuple(row[p] for p in l_pos)
                candidates = (
                    get(key, _EMPTY)
                    if not any(v is None for v in key)
                    else _EMPTY
                )
                work += probe
                hit = False
                for cand in candidates:
                    if residual_fn is not None and residual_fn(
                        row + cand, params
                    ) is not True:
                        continue
                    hit = True
                    if jk is JoinKind.INNER or jk is JoinKind.LEFT:
                        append(row + cand)
                    elif jk is JoinKind.SEMI:
                        append(row)
                        break
                    else:  # ANTI: presence of a match drops the row
                        break
                if not hit:
                    if jk is JoinKind.LEFT:
                        append(row + null_pad)
                    elif jk is JoinKind.ANTI:
                        append(row)
        if seg == -1:
            metrics.charge_master(work)
        else:
            metrics.charge_segment(seg, work)
        out_buckets.append(matched)
    return DColumns(
        kind, out_cols, [Chunk.from_rows(b) for b in out_buckets]
    )


def _nl_loop(op, n_outer: int, index):
    """The generated pair loop of one nested-loops join:
    ``f(outer rows, inner rows, params, nl_factor, null pad, append,
    bound) -> work``.  The condition is inlined and reads both rows in
    place, so an output row is built only for a pair that passed; the
    per-pair ``work += nl_factor`` stays, in the row path's order."""
    em = Emitter()
    jk = op.kind
    inner = jk is JoinKind.INNER
    lines = ["    _w = 0.0", "    for _row in _o:"]
    if not inner:
        lines.append("        _hit = False")
    lines += ["        for _cand in _i:", "            _w += _nlf"]
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
        ["def _nl(_o, _i, _params, _nlf, _pad, _append, _B):"]
        + em.unpack() + lines + ["    return _w", ""]
    )
    fn = load_generated(src, "<nl-join>", _row_code)["_nl"]
    return fn, tuple(em.bound)


def _b_nl_join(ex, node) -> DColumns:
    op = node.op
    outer = ex._exec(node.children[0])
    inner = ex._exec(node.children[1])
    left_only = op.kind.output_is_left_only()
    out_cols = list(outer.cols) if left_only else list(outer.cols) + list(
        inner.cols
    )
    null_pad = (None,) * len(inner.cols)
    kind = ex._join_output_kind(outer, inner)
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
    metrics = ex.metrics
    out_buckets = []
    for seg, o_rows, i_rows in ex._join_sides(outer, inner):
        bucket = []
        work = loop(
            o_rows, i_rows, params, nl_factor, null_pad, bucket.append, bound
        )
        if seg == -1:
            metrics.charge_master(work)
        else:
            metrics.charge_segment(seg, work)
        out_buckets.append(bucket)
        metrics.check_budget()
    return DColumns(
        kind, out_cols, [Chunk.from_rows(b) for b in out_buckets]
    )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def _b_agg(ex, node) -> DColumns:
    op = node.op
    child = ex._exec(node.children[0])
    index = _index(child.cols)
    g_pos = [index[c.id] for c in op.group_cols]
    out_cols = list(op.group_cols) + [c for _a, c in op.aggs]
    is_stream = isinstance(op, ph.PhysicalStreamAgg)
    factor = ex.params.cpu_tuple if is_stream else ex.params.agg_factor
    aggs = op.aggs
    # Aggregate arguments are evaluated once per bucket as whole
    # columns; None marks count(*) (constant 1 per row).
    arg_fns = [
        compiled_vector(a.arg, index) if a.arg is not None else None
        for a, _c in aggs
    ]
    params = ex._param_env
    out_chunks = []
    for ch in child.chunks:
        n = ch.n
        groups: dict[tuple, list] = {}
        if n:
            vecs = [fn(ch, n, params) if fn else None for fn in arg_fns]
            if not g_pos:
                state = groups[()] = [_agg_init(a) for a, _c in aggs]
                for slot, (agg, _c), vec in zip(state, aggs, vecs):
                    _fold_column(slot, agg, vec, n)
            elif len(aggs) == 1:
                # One aggregate: skip the per-row zip over slots.
                agg0 = aggs[0][0]
                vec0 = vecs[0]
                g_cols = [ch[p] for p in g_pos]
                single = len(g_cols) == 1
                g0 = g_cols[0]
                get = groups.get
                for i in range(n):
                    key = (g0[i],) if single else tuple(
                        c[i] for c in g_cols
                    )
                    state = get(key)
                    if state is None:
                        state = groups[key] = [_agg_init(agg0)]
                    _agg_add_value(
                        state[0], agg0, 1 if vec0 is None else vec0[i]
                    )
            else:
                g_cols = [ch[p] for p in g_pos]
                single = len(g_cols) == 1
                g0 = g_cols[0]
                for i in range(n):
                    key = (g0[i],) if single else tuple(
                        c[i] for c in g_cols
                    )
                    state = groups.get(key)
                    if state is None:
                        state = groups[key] = [
                            _agg_init(a) for a, _c in aggs
                        ]
                    for slot, (agg, _c), vec in zip(state, aggs, vecs):
                        _agg_add_value(
                            slot, agg, 1 if vec is None else vec[i]
                        )
        if not op.group_cols and not groups:
            # Scalar aggregation over empty input still yields one row.
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
            out_rows = _sort_rows(
                out_rows, out_cols, [SortKey(c.id) for c in op.group_cols]
            )
        out_chunks.append(Chunk.from_rows(out_rows))
    ex._charge_by_kind(child, child.total_rows() * factor)
    return DColumns(child.kind, out_cols, out_chunks)


def _fold_column(slot, agg, vec, n) -> None:
    """Fold a whole argument column into one aggregate slot.

    Specialized per aggregate but value-for-value identical to folding
    row by row with ``_agg_add_value`` (same left-to-right accumulation
    order, so float sums match exactly).
    """
    name = agg.name
    if vec is None:  # count(*)
        if name == "count" and agg.arg is None:
            slot[0] += n
            return
        vec = (1,) * n
    if slot[1] is not None:  # DISTINCT: generic per-value fold
        for v in vec:
            _agg_add_value(slot, agg, v)
        return
    if name in ("sum", "avg"):
        acc = slot[0]
        total, count = acc
        for v in vec:
            if v is None:
                continue
            total = v if total is None else total + v
            count += 1
        acc[0] = total
        acc[1] = count
    elif name == "count":
        slot[0] += sum(1 for v in vec if v is not None)
    elif name == "min":
        cur = slot[0]
        for v in vec:
            if v is not None and (cur is None or v < cur):
                cur = v
        slot[0] = cur
    elif name == "max":
        cur = slot[0]
        for v in vec:
            if v is not None and (cur is None or v > cur):
                cur = v
        slot[0] = cur
    else:
        for v in vec:
            _agg_add_value(slot, agg, v)


#: Operators with a columnar implementation; everything else inherits
#: the row handler (its DRows result is lifted into DColumns lazily).
BATCH_HANDLERS = {
    ph.PhysicalTableScan: _b_scan,
    ph.PhysicalDynamicTableScan: _b_scan,
    ph.PhysicalIndexScan: _b_index_scan,
    ph.PhysicalFilter: _b_filter,
    ph.PhysicalProject: _b_project,
    ph.PhysicalHashJoin: _b_hash_join,
    ph.PhysicalNLJoin: _b_nl_join,
    ph.PhysicalHashAgg: _b_agg,
    ph.PhysicalStreamAgg: _b_agg,
}
