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
parallelism: persistent worker processes, each a
:class:`repro.gpos.process.Supervised` child serving batches through
:func:`repro.gpos.process.serve` (DESIGN §3m has the protocol, the
id-echo rule and the drain).  Workers never see plans — a batch carries
a picklable :class:`ChainSpec` (physical operators + column layouts)
the first time a worker sees the chain, each worker recompiles it
exactly once into the same generated code (codegen is deterministic),
and after that every round trip carries only row lists in and (row
lists | group tables, counter tuples) out.  Results are reassembled in
bucket order on the coordinator, so parallel execution is
float-identical to the serial fused path regardless of worker timing;
the per-node charges then run sequentially on the coordinator as before.

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
the bound clears the coordinator's side at once and each worker's with
the ``flush`` flag of its next batch, so unstable inputs can never
accumulate without limit.  Identity-keyed pinning makes staleness
structurally impossible: an id is only reused by Python after the
object is freed, and pinned objects are not freed.

Lifecycle: the pool forks lazily on first dispatch, is reused across
queries (a session keeps one for its lifetime), and is drained by
:meth:`MorselPool.shutdown` — called by whoever made the pool
(``Session.close()``).  A worker crash or an error reply mid-batch
poisons the current query (``ExecutionError``) but not the pool: the
next dispatch respawns a fresh set of workers.  A gather cut short (an
interrupt) leaves its replies in the pipes, and the next dispatch drops
them by id.

Fleet interaction: none.  Fleet workers are daemonic processes, which
multiprocessing forbids from having children, so a fleet refuses
``parallelism >= 2`` at construction.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.errors import ExecutionError
from repro.gpos.process import Last, NoReply, Supervised, serve
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

#: The farewell that ends a pool worker's serve loop.
_SHUTDOWN = "shutdown"


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


def _compile_spec(spec: ChainSpec):
    """Worker-side compilation: stand-ins for what the fused compiler
    reads — a node's ``.op`` (and identity), a chain's ``.ops``, a build
    side's ``.cols`` — then the compiler itself (imported lazily —
    workers are forked before any morsel arrives, so the import usually
    resolves from the parent)."""
    from repro.engine.fused import _compile_chain

    nodes = [SimpleNamespace(op=op) for op in spec.ops]
    inners = {
        id(nodes[i]): SimpleNamespace(cols=cols) for i, cols in spec.inner_cols
    }
    return _compile_chain(SimpleNamespace(ops=nodes), spec.src_cols, inners)


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

    Per-worker chain cache keyed by the coordinator's chain ids; a batch
    carries the chain's spec the first time this worker sees the chain,
    and ``flush`` empties the resident cache before the batch is read.
    Row lists arrive either inline (``("x", rows)``), as an install
    (``("i", rid, rows)`` — kept in the resident cache), or as a
    reference to an earlier install (``("r", rid)``).  Hash tables built
    from resident build sides are themselves cached per (chain, stage,
    rid).
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

    def handle(batch):
        if batch == _SHUTDOWN:
            return Last(None)
        if batch["flush"]:
            resident.clear()
            built_cache.clear()
        chain_key, stage_idx = batch["chain"], batch["stage"]
        if batch["spec"] is not None:
            chains[chain_key] = _compile_spec(batch["spec"])
        stage = chains[chain_key].stages[stage_idx]
        built = []
        for enc in batch["tables"]:
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
                batch["params"],
            )
            for o_enc, t_idx in batch["morsels"]
        ]
        return {"ok": True, "results": results}

    serve(conn, handle)


class MorselPool:
    """A persistent pool of forked morsel workers.

    Created eagerly (cheap), forked lazily on the first parallel
    dispatch.  ``run_stage`` is a synchronous scatter/gather: morsels
    are dealt round-robin, every active worker gets one batch request
    (carrying the chain spec if it has never seen the chain, the build
    tables its morsels reference, and the morsel list), and replies are
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
        self._children: list[Supervised] = []
        #: Per-worker set of chain keys already shipped + compiled there.
        self._known: list[set[int]] = []
        #: Resident row-set cache: pinned rows (rid -> strong ref, so
        #: the id stays valid), per-worker sets of resident rids, the
        #: workers whose next batch must flush theirs, and the
        #: pinned-row budget that triggers a flush when exceeded.
        self._pinned: dict[int, list] = {}
        self._pinned_rows = 0
        self._resident: list[set[int]] = []
        self._unflushed: set[int] = set()
        self.pin_rows_max = _PIN_ROWS_MAX
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def _procs(self) -> list:
        return [child.process for child in self._children]

    def ensure_started(self) -> None:
        if self._children or self._closed:
            return
        for i in range(self.workers):
            child = Supervised(_pool_worker_main, name=f"{self.name}-{i}")
            child.start()
            self._children.append(child)
            self._known.append(set())
            self._resident.append(set())
        self.tracer.set_gauge(families.MORSEL_POOL_WORKERS, self.workers)

    # ------------------------------------------------------------------
    def _flush_resident(self) -> None:
        """Drop the resident cache: here at once, on each worker with the
        next batch it is sent."""
        self._pinned.clear()
        self._pinned_rows = 0
        for rids in self._resident:
            rids.clear()
        self._unflushed = set(range(len(self._children)))
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

    def _poisoned(self, message: str) -> ExecutionError:
        """Drain the pool for a failed stage (the next dispatch respawns
        it) and return the error to raise."""
        self.shutdown()
        self._closed = False  # poisoned query, not a closed pool
        return ExecutionError(message)

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
                    tables[w].append(self._encode_rows(w, i_rows, True))
            batches[w].append((
                self._encode_rows(w, rows, cache_source), t_idx
            ))
        try:
            ids = []
            for w in range(width):
                spec = None
                if chain_key not in self._known[w]:
                    spec = make_spec()
                    self._known[w].add(chain_key)
                ids.append(self._children[w].request({
                    "chain": chain_key, "spec": spec, "stage": stage_idx,
                    "flush": w in self._unflushed, "tables": tables[w],
                    "morsels": batches[w], "params": params,
                }))
                self._unflushed.discard(w)
            results: list = [None] * n
            for w, req_id in enumerate(ids):
                reply = self._children[w].reply(req_id)
                if not reply["ok"]:
                    raise self._poisoned(
                        f"morsel worker {w} failed: "
                        f"{reply['error_class']}: {reply['message']}"
                    )
                for k, res in enumerate(reply["results"]):
                    results[w + k * width] = res
        except NoReply as exc:
            raise self._poisoned(
                f"morsel pool lost a worker mid-stage ({exc.reason})"
            ) from None
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
            "workers": self.workers if self._children else 0,
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
        """Drain the pool: stop every worker (farewell, then terminate
        on a deadline).  Idempotent; no child processes survive."""
        self._closed = True
        for child in self._children:
            child.stop(farewell=_SHUTDOWN, timeout=timeout)
        self._children = []
        self._known = []
        self._resident = []
        self._unflushed = set()
        self._pinned = {}
        self._pinned_rows = 0

    def __enter__(self) -> "MorselPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._children:
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
