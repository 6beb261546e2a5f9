"""Morsel-driven parallel execution of fused pipelines.

The fused engine (:mod:`repro.engine.fused`) splits every compiled
chain into a *streaming* phase (generated loop functions that only
count rows) and a sequential *replay* phase that re-issues the row
path's exact metric arithmetic.  The streaming phase does no float
accounting at all, which makes it embarrassingly parallel per bucket:
one **morsel** is one (chain stage, bucket/segment) pair, and morsels
of the same stage never share state.

This module supplies the worker pool that exploits that split.  Pure
Python loops do not parallelize under the GIL, so the pool is real
parallelism: persistent forked worker processes connected by pipes.
Workers never see plans — the coordinator ships a picklable
:class:`ChainSpec` (physical operators + column layouts) once per
(worker, chain), each worker recompiles it exactly once into the same
generated code (codegen is deterministic), and after that every round
trip carries only row lists in and (row lists | group tables, counter
tuples) out.  Results are reassembled in bucket order on the
coordinator, so parallel execution is float-identical to the serial
fused path regardless of worker timing; the replay phase then runs
sequentially on the coordinator as before.

Serialization is the pool's only real overhead, and for hot repeated
queries it is avoidable: on a warm cluster the fused scan cache serves
the *same* bucket list objects on every execution, so the pool keeps a
**resident row-set cache** per worker.  A bucket list shipped once is
pinned on the coordinator (a strong reference, so its ``id`` cannot be
recycled) and recorded as resident on the receiving worker; later
dispatches of the same list ship a tiny ``("r", id)`` reference
instead of re-pickling thousands of rows.  Workers additionally reuse
the join hash tables they build from resident build sides.  The pin
set is bounded (:attr:`MorselPool.pin_rows_max` source rows); crossing
the bound flushes both sides and starts over, so unstable inputs can
never accumulate without limit.  Identity-keyed pinning makes staleness
structurally impossible: an id is only reused by Python after the
object is freed, and pinned objects are not freed.

Lifecycle: the pool forks lazily on first dispatch, is reused across
queries (a session keeps one for its lifetime), and is drained by
:meth:`MorselPool.shutdown` — called by whoever made the pool
(``Session.close()``).  Workers are daemons, so even an abandoned pool
dies with the coordinator process.  A worker crash mid-batch poisons
the current query (``ExecutionError``) but not the pool: the next
dispatch respawns a fresh set of workers.

Fleet interaction: none.  Fleet workers are daemonic processes, which
multiprocessing forbids from having children, so a fleet refuses
``parallelism >= 2`` at construction.
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import ExecutionError
from repro.telemetry import families
from repro.trace import NULL_TRACER

#: Monotonic ids for compiled chains, unique per coordinator process.
#: Workers key their compile cache by these, so a chain is shipped and
#: compiled at most once per (worker, chain) pair.
_CHAIN_KEYS = itertools.count(1)

#: Default bound on coordinator-pinned resident rows.  Stable inputs
#: (scan-cache buckets) cost almost nothing extra to pin — the rows
#: already live in the scan cache — so the bound exists to stop
#: *unstable* inputs (fresh lists every execution) from accumulating
#: pinned garbage; crossing it flushes the resident cache on both sides.
_PIN_ROWS_MAX = 1 << 19


def next_chain_key() -> int:
    return next(_CHAIN_KEYS)


class ChainSpec:
    """A picklable compile recipe for one fused chain.

    Carries exactly the inputs :func:`repro.engine.fused._compile_chain`
    consumes — the chain's physical operators in bottom-up order, the
    source column layout, and the build-side column layout of every
    hash join in the chain (by position in ``ops``).  Compilation is a
    pure function of these, so coordinator and workers generate the
    same stage functions with the same counter indices.
    """

    __slots__ = ("ops", "src_cols", "inner_cols")

    def __init__(self, ops, src_cols, inner_cols):
        self.ops = ops
        self.src_cols = src_cols
        #: list of (index into ops, build-side column layout).
        self.inner_cols = inner_cols

    def __getstate__(self):
        return (self.ops, self.src_cols, self.inner_cols)

    def __setstate__(self, state):
        self.ops, self.src_cols, self.inner_cols = state


class _SpecNode:
    """Minimal stand-in for a PlanNode on the worker side: the chain
    compiler only reads ``.op`` and uses node identity for bookkeeping."""

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op


class _SpecChain:
    __slots__ = ("ops",)

    def __init__(self, ops):
        self.ops = ops


class _SpecCols:
    """Duck-types the ``.cols`` attribute of a build-side DRows."""

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = cols


def _compile_spec(spec: ChainSpec):
    """Worker-side compilation: rebuild shim nodes and delegate to the
    fused compiler (imported lazily — workers are forked before any
    morsel arrives, so the import usually resolves from the parent)."""
    from repro.engine.fused import _compile_chain

    nodes = [_SpecNode(op) for op in spec.ops]
    inners = {
        id(nodes[i]): _SpecCols(cols) for i, cols in spec.inner_cols
    }
    return _compile_chain(_SpecChain(nodes), spec.src_cols, inners)


def _run_morsel(stage, rows, table, params):
    """Execute one compiled stage function over one bucket; returns
    ``(counters, payload)`` where payload is an output row list or, for
    sink stages, the bucket's group table."""
    if stage.agg is not None:
        groups: dict = {}
        if stage.join is None:
            cts = stage.fn(rows, params, None, stage.bound, groups)
        else:
            cts = stage.fn(rows, table, params, None, stage.bound, groups)
        return cts, groups
    out: list = []
    if stage.join is None:
        cts = stage.fn(rows, params, out.append, stage.bound, None)
    else:
        cts = stage.fn(rows, table, params, out.append, stage.bound, None)
    return cts, out


def _pool_worker_main(conn) -> None:
    """Worker process entry point: serve morsel batches until shutdown.

    One request in, one response out; per-worker chain cache keyed by
    the coordinator's chain ids.  Row lists arrive either inline
    (``("x", rows)``), as an install (``("i", rid, rows)`` — kept in
    the resident cache), or as a reference to an earlier install
    (``("r", rid)``).  Hash tables built from resident build sides are
    themselves cached per (chain, stage, rid).  Any exception is
    downgraded to an error response — the coordinator decides whether
    to poison the pool.
    """
    chains: dict[int, Any] = {}
    resident: dict[int, list] = {}
    built_cache: dict[tuple, dict] = {}

    def rows_of(enc):
        tag = enc[0]
        if tag == "x":
            return enc[1]
        if tag == "i":
            resident[enc[1]] = enc[2]
            return enc[2]
        return resident[enc[1]]

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        try:
            if kind == "chain":
                _kind, key, spec = msg
                chains[key] = _compile_spec(spec)
                continue  # fire-and-forget: the batch follows on the pipe
            if kind == "flush":
                resident.clear()
                built_cache.clear()
                continue
            _kind, chain_key, stage_idx, tables, morsels, params = msg
            stage = chains[chain_key].stages[stage_idx]
            built = []
            for enc in tables:
                if enc[0] == "x":
                    built.append(stage.build(enc[1]))
                    continue
                i_rows = rows_of(enc)
                bkey = (chain_key, stage_idx, enc[1])
                table = built_cache.get(bkey)
                if table is None:
                    table = built_cache[bkey] = stage.build(i_rows)
                built.append(table)
            results = [
                _run_morsel(
                    stage, rows_of(o_enc),
                    built[t_idx] if t_idx is not None else None,
                    params,
                )
                for o_enc, t_idx in morsels
            ]
            conn.send(("ok", results))
        except Exception as exc:  # noqa: BLE001 - downgraded to response
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except Exception:
                break
    conn.close()


class MorselPool:
    """A persistent pool of forked morsel workers.

    Created eagerly (cheap), forked lazily on the first parallel
    dispatch.  ``run_stage`` is a synchronous scatter/gather: morsels
    are dealt round-robin, every active worker gets one batched message
    (chain spec first if it has never seen the chain, then the build
    tables its morsels reference, then the morsel list), and replies are
    reassembled in morsel order — so results are deterministic and
    order-identical to the serial loop.
    """

    def __init__(
        self,
        workers: int,
        *,
        tracer=None,
        name: str = "morsels",
    ):
        self.workers = max(int(workers), 2)
        self.name = name
        #: The owner's instrumentation front (metrics only; spans around a
        #: dispatch are the fused engine's).
        self.tracer = tracer or NULL_TRACER
        #: This pool's own counters, for ``stats()``.
        self.morsels_dispatched = 0
        self.batches = 0
        self.rows_shipped = 0
        self.rows_reused = 0
        self.cache_flushes = 0
        #: Seconds of the most recent dispatches (the p95 in ``stats()``).
        self._dispatch_seconds: deque[float] = deque(maxlen=1024)
        self._procs: list = []
        self._conns: list = []
        #: Per-worker set of chain keys already shipped + compiled there.
        self._known: list[set[int]] = []
        #: Resident row-set cache: pinned rows (rid -> strong ref, so
        #: the id stays valid), per-worker sets of resident rids, and
        #: the pinned-row budget that triggers a flush when exceeded.
        self._pinned: dict[int, list] = {}
        self._pinned_rows = 0
        self._resident: list[set[int]] = []
        self.pin_rows_max = _PIN_ROWS_MAX
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self._procs)

    def ensure_started(self) -> None:
        if self._procs or self._closed:
            return
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        for i in range(self.workers):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(child_conn,),
                name=f"{self.name}-{i}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._known.append(set())
            self._resident.append(set())
        self.tracer.set_gauge(families.MORSEL_POOL_WORKERS, self.workers)

    # ------------------------------------------------------------------
    def _flush_resident(self) -> None:
        """Drop the resident cache on both sides (pipes are FIFO, so the
        flush is ordered ahead of any batch sent after it)."""
        self._pinned.clear()
        self._pinned_rows = 0
        for rids in self._resident:
            rids.clear()
        for conn in self._conns:
            conn.send(("flush",))
        self.cache_flushes += 1
        self.tracer.inc(families.MORSEL_CACHE_FLUSHES)

    def _encode_rows(self, w: int, rows, cacheable: bool):
        """Encode one row list for worker ``w``: inline, install, or a
        reference to a list already resident there."""
        if not cacheable:
            self.rows_shipped += len(rows)
            return ("x", rows)
        rid = id(rows)
        if rid in self._resident[w]:
            self.rows_reused += len(rows)
            return ("r", rid)
        if rid not in self._pinned:
            self._pinned[rid] = rows
            self._pinned_rows += len(rows)
        self._resident[w].add(rid)
        self.rows_shipped += len(rows)
        return ("i", rid, rows)

    def run_stage(
        self,
        chain_key: int,
        make_spec: Callable[[], ChainSpec],
        stage_idx: int,
        morsels: list,
        params: dict,
        *,
        cache_source: bool = False,
    ) -> list:
        """Execute one stage's morsels on the pool, results in order.

        ``morsels`` is a list of ``(rows, build_rows_or_None)``; build
        rows appearing in several morsels (replicated join sides) are
        shipped once per worker and the hash table built once per
        worker.  With ``cache_source`` the outer row lists enter the
        resident cache (the fused engine sets it for stage 0, whose
        buckets are served by the scan cache with stable identity);
        build sides are always cached.  Returns ``[(counters, payload),
        ...]`` aligned with the input order.  A dead or misbehaving
        worker poisons only this query: the pool shuts down, raises
        ExecutionError, and respawns on the next dispatch.
        """
        self.ensure_started()
        start = time.perf_counter()
        n = len(morsels)
        width = min(self.workers, n)
        shipped0, reused0 = self.rows_shipped, self.rows_reused
        try:
            if self._pinned_rows > self.pin_rows_max:
                self._flush_resident()
            batches: list[list] = [[] for _ in range(width)]
            tables: list[list] = [[] for _ in range(width)]
            table_idx: list[dict[int, int]] = [{} for _ in range(width)]
            for j, (rows, i_rows) in enumerate(morsels):
                w = j % width
                t_idx = None
                if i_rows is not None:
                    t_idx = table_idx[w].get(id(i_rows))
                    if t_idx is None:
                        t_idx = table_idx[w][id(i_rows)] = len(tables[w])
                        tables[w].append(
                            self._encode_rows(w, i_rows, True)
                        )
                batches[w].append((
                    self._encode_rows(w, rows, cache_source), t_idx
                ))
            for w in range(width):
                conn = self._conns[w]
                if chain_key not in self._known[w]:
                    conn.send(("chain", chain_key, make_spec()))
                    self._known[w].add(chain_key)
                conn.send((
                    "batch", chain_key, stage_idx, tables[w], batches[w],
                    params,
                ))
            results: list = [None] * n
            for w in range(width):
                reply = self._conns[w].recv()
                if reply[0] != "ok":
                    raise ExecutionError(
                        f"morsel worker {w} failed: {reply[1]}"
                    )
                for k, res in enumerate(reply[1]):
                    results[w + k * width] = res
        except (EOFError, OSError, BrokenPipeError) as exc:
            self.shutdown()
            self._closed = False  # poisoned query, not a closed pool
            raise ExecutionError(
                f"morsel pool lost a worker mid-stage: {exc}"
            ) from exc
        except ExecutionError:
            self.shutdown()
            self._closed = False
            raise
        elapsed = time.perf_counter() - start
        self.morsels_dispatched += n
        self.batches += 1
        self._dispatch_seconds.append(elapsed)
        tracer = self.tracer
        tracer.inc(families.MORSELS_DISPATCHED, n)
        tracer.inc(families.MORSEL_ROWS_SHIPPED, self.rows_shipped - shipped0)
        tracer.inc(families.MORSEL_ROWS_REUSED, self.rows_reused - reused0)
        tracer.observe(families.MORSEL_DISPATCH_SECONDS, elapsed)
        return results

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Pool counters for reports: worker count, morsels dispatched,
        and the p95 latency of the last 1024 dispatches."""
        recent = sorted(self._dispatch_seconds)
        return {
            "workers": self.workers if self.started else 0,
            "configured_workers": self.workers,
            "morsels_dispatched": self.morsels_dispatched,
            "batches": self.batches,
            "rows_shipped": self.rows_shipped,
            "rows_reused": self.rows_reused,
            "cache_flushes": self.cache_flushes,
            "dispatch_p95_ms": (
                round(recent[int(0.95 * (len(recent) - 1))] * 1000.0, 3)
                if recent else None
            ),
        }

    def shutdown(self, timeout: float = 2.0) -> None:
        """Drain the pool: ask workers to exit, then join (terminate on
        a deadline).  Idempotent; no child processes survive."""
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (OSError, BrokenPipeError):
                pass
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
        self._procs = []
        self._conns = []
        self._known = []
        self._resident = []
        self._pinned = {}
        self._pinned_rows = 0

    def __enter__(self) -> "MorselPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._procs:
                self.shutdown(timeout=0.1)
        except Exception:
            pass


def make_pool(
    parallelism: int,
    *,
    tracer=None,
    name: str = "morsels",
) -> Optional[MorselPool]:
    """A :class:`MorselPool` when ``parallelism >= 2``, else None (the
    serial path)."""
    if parallelism < 2:
        return None
    return MorselPool(parallelism, tracer=tracer, name=name)
