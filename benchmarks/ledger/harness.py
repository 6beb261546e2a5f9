"""One workload, one fresh process: set-up, closed-loop window, metrics.

``run.py`` starts this module's :func:`run` in a subprocess per
(workload, traced or not), because interning tables, scan caches and
compiled chains are process-global.  All traffic enters through
``repro.connect(...)``/``Session.execute`` or
``repro.connect_fleet(...)``/``Fleet.execute``: SQL text in, rows out.
Each client sends its next statement only when the previous one has
returned (closed loop).  GC stays enabled inside the window.

The sandbox is a few cores of a shared host, and two kinds of interference
reach it.  Its cores change speed by 10-60% for tens of seconds to minutes
at a time (CPU time tracks wall time, so it is core speed, not stolen
time): raw 20-second runs of one commit differed by up to 28%, one by 65%.
The untraced run therefore times a fixed pure-Python probe after every
statement and scales each latency to what it would be with the probe at
its reference time.  And neighbours' bursts add time to single executions,
never take any away, so repeated measurements of the same work are read at
their first quartile (:data:`QUIET_QUANTILE`), not pooled.  Raw figures are
reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import resource
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import layers
import oracle
import repro
from repro.workloads import build_populated_db
from workloads import WORKLOADS, Workload

clock = time.perf_counter
GOOD_SOURCES = ("orca", "cache")
#: What the speed probe takes on a calm core of the 2-vCPU sandbox the
#: ledger was written on; scaled times are times at this machine speed.
PROBE_REF_S = 0.00075
#: A statement is scaled by the median of the probes up to this many
#: statements either side of it.
PROBE_WINDOW = 5
#: Repeated measurements of the same work are read at this quantile from
#: the good end.  Interference on a shared host only ever adds time: with
#: medians, 20-second windows of one commit, calm and beside bursty
#: neighbours, spread 5-14%, with first quartiles 2-8%.  The minimum was
#: no steadier: it is one sample, picked by the scaling's own error.
QUIET_QUANTILE = 0.25
_PROBE_DATA = [(i * 7919 % 1000, (i * 104729 % 9973) / 9973.0) for i in range(6000)]
#: Statements per client per block in a smoke run of the fleet workload.
SMOKE_REQUESTS = 16
#: A smoke run checks the plumbing, not the numbers: small tables.
SMOKE_SCALE = 0.1
#: search_stats field -> per-layer counter it feeds.
SEARCH_COUNTS = {
    "xform_count": "xforms.applied",
    "num_groups": "memo.groups",
    "num_gexprs": "memo.gexprs",
    "jobs_executed": "search.jobs",
    "costed_alternatives": "search.costed_alternatives",
    "pruned_alternatives": "search.pruned_alternatives",
    "derivation_cache_hits": "stats.cache_hits",
    "memory_bytes": "gpos.memo_bytes",
}
ENGINE_COUNTS = {
    "rows_scanned": "engine.rows_scanned",
    "rows_moved": "engine.rows_moved",
    "net_bytes": "engine.net_bytes",
}


def speed_probe() -> float:
    """Seconds a fixed, allocation-light interpreter loop takes now."""
    start = clock()
    groups: dict = {}
    get = groups.get
    total = 0.0
    for key, value in _PROBE_DATA:
        slot = get(key)
        if slot is None:
            groups[key] = [1, value]
        else:
            slot[0] += 1
            slot[1] += value
        if value > 0.5:
            total += value * key
    return clock() - start


@dataclass
class Sample:
    mode: str
    #: Statement name (the same for every literal redrawn into it).
    name: str
    #: Index of the block (round) the statement ran in.
    block: int
    start: float
    end: float
    #: '' for a correct statement, else why it counts as failed.
    failure: str
    #: Seconds the speed probe took right after the statement (0: none).
    probe: float = 0.0
    #: Reference probe time / probe time around this statement.
    scale: float = 1.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def scale_to_reference(samples: list[Sample]) -> None:
    """Set each probed sample's ``scale`` from its neighbours in time."""
    ordered = sorted((s for s in samples if s.probe), key=lambda s: s.end)
    probes = [s.probe for s in ordered]
    for i, sample in enumerate(ordered):
        around = probes[max(i - PROBE_WINDOW, 0):i + PROBE_WINDOW + 1]
        sample.scale = PROBE_REF_S / statistics.median(around)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(int(q * len(sorted_values)), len(sorted_values) - 1)]


class _Driver:
    """What session and fleet workloads share: warm-up, the loop of
    blocks, the timed call, the oracle check and the sample list.

    A *block* is one round (session) or one catalog bump plus a stretch
    of requests per client (fleet).  A traced run cycles through
    ``modes`` block by block, so ratios between modes compare
    interleaved blocks of the same work inside one process.
    """

    #: label -> Session or Fleet; "plain" is the measured configuration.
    targets: dict
    modes: list[str]
    #: Blocks in a full-length run without ``--seconds``.
    full_blocks: int

    def __init__(self, workload: Workload, expected: dict, recorder):
        self.w = workload
        self.expected = expected
        self.recorder = recorder
        self.samples: list[Sample] = []
        self.counts: dict[str, float] = {}
        #: mode -> seconds per statement of each of its blocks.
        self.block_costs: dict[str, list[float]] = {}
        self._block = 0
        self._stmt_ids = itertools.count()
        #: Fleet clients are threads: samples and counts are shared.
        self._lock = threading.Lock()

    def warm_up(self, stage) -> float:
        """One full pass per target, each statement a set-up stage;
        returns Σ simulated seconds of the base statements on the
        measured target (plan quality)."""
        sim = 0.0
        for label, target in self.targets.items():
            for stmt in self.w.statements:
                seconds = stage(target.execute, stmt.texts[0]).simulated_seconds()
                if label == "plain":
                    sim += seconds
        return sim

    def measure(self, seed: int, seconds, smoke: bool) -> None:
        self.start(seed, smoke)
        blocks = len(self.modes) if smoke else (self.full_blocks if seconds is None else None)
        deadline = clock() + seconds if seconds else None
        done = 0
        # Every mode gets a block, however short ``--seconds`` is.
        while (blocks is None or done < blocks) and (
            deadline is None or done < len(self.modes) or clock() < deadline
        ):
            mode = self.modes[done % len(self.modes)]
            self._block = done
            with self.recorder.installed() if mode == "traced" else nullcontext():
                cost = self.block(mode)
            self.block_costs.setdefault(mode, []).append(cost)
            done += 1

    def timed(self, mode: str, target, name: str, text: str) -> None:
        """Execute one statement, time it, then check it off the clock."""
        traced = mode == "traced"
        stmt_id = next(self._stmt_ids)
        start = clock()
        try:
            if traced:
                result = self.recorder.statement(stmt_id, target.execute, text)
            else:
                result = target.execute(text)
            end = clock()
        except Exception as exc:  # the ledger must keep counting
            failure = f"{name}: raised {type(exc).__name__}: {exc}"
            with self._lock:
                self.samples.append(Sample(mode, name, self._block, start, clock(), failure))
            return
        probe = speed_probe() if self.recorder is None else 0.0
        failure = oracle.compare(result.rows, self.expected[text])
        last = getattr(target, "last_result", None)
        if not failure and last is not None and last.plan_source not in GOOD_SOURCES:
            failure = f"plan_source {last.plan_source}"
        if failure:
            failure = f"{name}: {failure}"
        counted = {}
        if traced:
            counted = {n: getattr(result.metrics, f) for f, n in ENGINE_COUNTS.items()}
            if last is not None:
                counted.update((n, getattr(last.search_stats, f)) for f, n in SEARCH_COUNTS.items())
        with self._lock:
            self.samples.append(Sample(mode, name, self._block, start, end, failure, probe))
            for counter, amount in counted.items():
                self.counts[counter] = self.counts.get(counter, 0) + amount

    def of_mode(self, mode: str) -> list[Sample]:
        return [s for s in self.samples if s.mode == mode]

    def cost(self, mode: str) -> float:
        """Median seconds per statement over the mode's blocks."""
        return statistics.median(self.block_costs.get(mode) or [0.0])

    def bad_sources(self) -> int:
        return 0

    def close(self) -> None:
        for target in self.targets.values():
            target.close()


class SessionDriver(_Driver):
    def __init__(self, workload, db, expected, recorder):
        super().__init__(workload, expected, recorder)
        self.targets = {"plain": repro.connect(db, **workload.connect)}
        self.modes = ["plain"]
        self.full_blocks = workload.rounds
        if recorder is not None:
            for label, overrides in workload.traced_variants.items():
                kwargs = {**workload.connect, **overrides}
                if label == "tracer":
                    kwargs["tracer"] = repro.Tracer(capture_events=False)
                self.targets[label] = repro.connect(db, **kwargs)
            self.modes = ["traced", *self.targets]

    def start(self, seed: int, smoke: bool) -> None:
        self._rng = random.Random(seed)
        self._cache_before = self._cache_stats()

    def _cache_stats(self) -> dict:
        cache = self.targets["plain"].orca.plan_cache
        return cache.stats() if cache is not None else {}

    def block(self, mode: str) -> float:
        """One round.  Its cost is the sum of its statement latencies, so
        the oracle check between two statements is not in it."""
        session = self.targets["plain" if mode == "traced" else mode]
        first = len(self.samples)
        for name, text in self.w.round(self._rng):
            self.timed(mode, session, name, text)
        return sum(s.end - s.start for s in self.samples[first:]) / len(self.w.statements)

    def layer_inputs(self) -> dict:
        after = self._cache_stats()
        self_s, calls = self.recorder.totals()
        return {
            "self_s": self_s,
            "calls": calls,
            "cache": {k: after[k] - self._cache_before[k] for k in after},
            "fallbacks": self.targets["plain"].metrics.fallbacks,
        }


class FleetDriver(_Driver):
    def __init__(self, workload, db, expected, recorder):
        super().__init__(workload, expected, recorder)
        options = dict(workers=workload.fleet_workers, policy="round-robin", **workload.connect)
        self.targets = {"plain": repro.connect_fleet(db, **options)}
        self.modes = ["plain"]
        self.full_blocks = workload.requests_per_client // workload.bump_every
        if recorder is not None:
            # Forked while the wrappers are installed, so the workers
            # inherit them; the driver itself unwraps again right after.
            with recorder.installed():
                recorder.report_from_fleet_workers()
                self.targets["traced"] = repro.connect_fleet(db, **options)
            self.modes = ["traced", "plain", "single"]
        #: mode -> summed snapshot deltas over that mode's blocks.
        self.deltas: dict[str, dict] = {}

    def start(self, seed: int, smoke: bool) -> None:
        self._requests = SMOKE_REQUESTS if smoke else self.w.bump_every
        self._streams = [
            self._stream(random.Random(f"{seed}/{idx}")) for idx in range(self.w.clients)
        ]

    def _stream(self, rng: random.Random):
        """One client's requests: seeded shuffles of the statement list
        end to end, so any 32 in a row cover the corpus once."""
        while True:
            order = list(self.w.statements)
            rng.shuffle(order)
            yield from order

    # -- counters from public surfaces ---------------------------------
    def _snapshot(self, fleet) -> dict:
        requests = fleet.telemetry.histogram("fleet_request_seconds")
        snap = {
            "request_s": requests.sum(),
            "requests": requests.count(),
            "restarts": fleet.restarts_total,
        }
        for source, count in fleet.telemetry.counter("queries_total").series.items():
            snap[f"source.{dict(source)['plan_source']}"] = count
        for worker_id, stats in fleet.worker_stats().items():
            snap[f"routed.{worker_id}"] = fleet.telemetry.value(
                "fleet_routing_total", policy="round-robin", worker=str(worker_id)
            )
            snap["opt_s"] = snap.get("opt_s", 0.0) + stats["session"]["total_opt_seconds"]
            snap["fallbacks"] = snap.get("fallbacks", 0) + stats["session"]["fallbacks"]
            for key, value in (stats["plan_cache"] or {}).items():
                snap[f"cache.{key}"] = snap.get(f"cache.{key}", 0) + value
            for kind in ("self_s", "calls"):
                for name, value in stats.get("ledger_layers", {}).get(kind, {}).items():
                    snap[f"{kind}.{name}"] = snap.get(f"{kind}.{name}", 0) + value
        return snap

    def block(self, mode: str) -> float:
        """One catalog bump by client 0, then the same number of
        statements per client.  Every block holds the same work, so
        blocks compare; its cost is its wall time per statement."""
        fleet = self.targets["traced" if mode == "traced" else "plain"]
        clients = 1 if mode == "single" else self.w.clients

        def client(idx: int) -> None:
            if idx == 0:
                fleet.bump_catalog()
            for _ in range(self._requests):
                stmt = next(self._streams[idx])
                self.timed(mode, fleet, stmt.name, stmt.texts[0])

        before = self._snapshot(fleet)
        start = clock()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(client, idx) for idx in range(clients)]:
                future.result()
        wall = clock() - start
        total = self.deltas.setdefault(mode, {})
        for key, value in self._snapshot(fleet).items():
            total[key] = total.get(key, 0) + value - before.get(key, 0)
        return wall / (clients * self._requests)

    def bad_sources(self) -> int:
        """Statements served from a degraded plan: Fleet.execute does not
        return the plan source, so it is read from the fleet's counters."""
        return int(sum(
            value for delta in self.deltas.values() for key, value in delta.items()
            if key.startswith("source.") and key[len("source."):] not in GOOD_SOURCES
        ))

    def layer_inputs(self) -> dict:
        traced, plain = self.deltas.get("traced", {}), self.deltas.get("plain", {})

        def group(delta: dict, prefix: str) -> dict:
            return {k[len(prefix):]: v for k, v in delta.items() if k.startswith(prefix)}

        driver_self, driver_calls = self.recorder.totals()
        routed = list(group(plain, "routed.").values())
        return {
            "self_s": {**group(traced, "self_s."), **driver_self},
            "calls": {**group(traced, "calls."), **driver_calls},
            "cache": group(plain, "cache."),
            "fallbacks": plain.get("fallbacks", 0),
            "fleet": {
                "request_s": plain.get("request_s", 0.0),
                "requests": plain.get("requests", 0),
                "opt_s": plain.get("opt_s", 0.0),
                "restarts": sum(d.get("restarts", 0) for d in self.deltas.values()),
                "route_imbalance": _ratio(max(routed, default=0), min(routed, default=0)),
            },
        }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _quiet(values, reverse: bool = False) -> float:
    """The value a quarter of the way in from the good end."""
    return _percentile(sorted(values, reverse=reverse), QUIET_QUANTILE)


def end_to_end(samples: list[Sample], clients: int, scaled: bool) -> tuple[dict, dict]:
    """Throughput and latency percentiles of the *typical quiet block*,
    scaled to the reference machine speed or raw; and the same per block.

    Every block holds the same work, so the run is summarised over its
    blocks, not over the pool of samples: a neighbour's burst or a GC
    pause that hits one execution moves one sample of an order statistic,
    not a percentile of the pool.  The statistic is the first quartile,
    see :data:`QUIET_QUANTILE`.

    One client: each distinct statement's latency is its first quartile
    over the rounds; the typical round is those values, one per
    statement.  Its percentiles are percentiles over the statement mix,
    and its rate is statements over their sum, so the oracle check and
    the probe between two statements are not charged to the program.

    Several clients: a statement's latency depends on where in the block
    it falls (after a catalog bump it is re-optimized), so rate (over the
    block's wall) and percentiles are taken per block, then their
    quartile over the blocks.
    """
    def ms(sample: Sample) -> float:
        return sample.ms * (sample.scale if scaled else 1.0)

    blocks: dict[int, list[Sample]] = {}
    for sample in samples:
        blocks.setdefault(sample.block, []).append(sample)
    rates, medians, tails = [], [], []
    for chunk in blocks.values():
        if clients == 1:
            wall_ms = sum(ms(s) for s in chunk)
        else:
            wall_ms = (max(s.end for s in chunk) - min(s.start for s in chunk)) * 1e3
            if scaled:
                wall_ms *= statistics.median(s.scale for s in chunk)
        latencies = sorted(ms(s) for s in chunk)
        rates.append(_ratio(sum(1e3 for s in chunk if not s.failure), wall_ms))
        medians.append(statistics.median(latencies))
        tails.append(_percentile(latencies, 0.95))
    per_block = {"stmts_per_s": rates, "stmt_p50_ms": medians, "stmt_p95_ms": tails}
    if clients > 1:
        return {
            "stmts_per_s": _quiet(rates, reverse=True),
            "stmt_p50_ms": _quiet(medians),
            "stmt_p95_ms": _quiet(tails),
        }, per_block
    by_statement: dict[str, list[float]] = {}
    for sample in samples:
        by_statement.setdefault(sample.name, []).append(ms(sample))
    typical = sorted(_quiet(values) for values in by_statement.values())
    correct = sum(1 for s in samples if not s.failure) / len(samples)
    return {
        "stmts_per_s": correct * len(typical) * 1e3 / sum(typical),
        "stmt_p50_ms": statistics.median(typical),
        "stmt_p95_ms": _percentile(typical, 0.95),
    }, per_block


def layer_metrics(driver: _Driver, inputs: dict) -> dict[str, float]:
    """Every per-layer metric by name; 0 where a layer does not run."""
    traced = driver.of_mode("traced")
    n = len(traced)
    latency_s = sum(s.end - s.start for s in traced)
    self_s, calls, cache = inputs["self_s"], inputs["calls"], inputs["cache"]

    def ms(name: str) -> float:
        return _ratio(self_s.get(name, 0.0) * 1e3, n)

    cost = driver.cost
    def count(name: str) -> float:
        return _ratio(driver.counts.get(name, 0), n)

    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    fleet = inputs.get("fleet")
    out = {
        "sql.parse_ms": ms("sql.parse"),
        "sql.translate_ms": ms("sql.translate"),
        "xforms.normalize_ms": ms("xforms.normalize"),
        "xforms.apply_ms": ms("xforms.apply"),
        "xforms.applied": count("xforms.applied"),
        "memo.insert_ms": ms("memo.insert"),
        "memo.insert_calls": _ratio(calls.get("memo.insert", 0), n),
        "memo.groups": count("memo.groups"),
        "memo.gexprs": count("memo.gexprs"),
        "search.self_ms": ms("search.optimize"),
        "search.share": _ratio(self_s.get("search.optimize", 0.0), latency_s),
        "search.extract_ms": ms("search.extract"),
        "search.jobs": count("search.jobs"),
        "search.costed_alternatives": count("search.costed_alternatives"),
        "search.pruned_alternatives": count("search.pruned_alternatives"),
        "stats.derive_ms": ms("stats.derive"),
        "stats.derive_calls": _ratio(calls.get("stats.derive", 0), n),
        "stats.cache_hit_share": _ratio(
            driver.counts.get("stats.cache_hits", 0), calls.get("stats.derive", 0)
        ),
        "cost.local_cost_ms": ms("cost.local_cost"),
        "cost.floor_ms": ms("cost.floor"),
        "cost.calls": _ratio(calls.get("cost.local_cost", 0) + calls.get("cost.floor", 0), n),
        "gpos.deep_sizeof_ms": ms("gpos.deep_sizeof"),
        "gpos.memo_bytes": count("gpos.memo_bytes"),
        "plancache.fingerprint_ms": ms("plancache.fingerprint"),
        "plancache.lookup_ms": ms("plancache.lookup"),
        "plancache.store_ms": ms("plancache.store"),
        "plancache.hit_share": _ratio(cache.get("hits", 0), lookups),
        "plancache.rebind_share": _ratio(cache.get("rebinds", 0), lookups),
        "plancache.stale_evictions": cache.get("stale_evictions", 0),
        "engine.execute_ms": ms("engine.execute"),
        "engine.fused_chain_ms": ms("engine.fused_chain"),
        "engine.segment_ms": ms("engine.segment"),
        "engine.rows_scanned": count("engine.rows_scanned"),
        "engine.rows_moved": count("engine.rows_moved"),
        "engine.net_bytes": count("engine.net_bytes"),
        # serial wall / parallel wall on the same statements, interleaved.
        "engine.parallel_ratio": _ratio(cost("plain"), cost("parallel")),
        "service.overhead_ms": ms("service.execute"),
        "service.fallbacks": inputs["fallbacks"],
        "fleet.request_ms": 0.0,
        "fleet.wait_ms": 0.0,
        "fleet.worker_opt_share": 0.0,
        "fleet.concurrency_gain": 0.0,
        "fleet.route_imbalance": 0.0,
        "fleet.shared_hit_share": 0.0,
        "fleet.restarts": 0,
        # Interleaved blocks of the same statements, with and without.
        "obs.ledger_overhead": _ratio(cost("traced"), cost("plain")),
        "obs.tracer_overhead": _ratio(cost("tracer"), cost("plain")),
        # Layer self times (root span excluded) over the harness's own
        # clock around the same statements: what the spans account for.
        "obs.self_time_coverage": _ratio(
            sum(v for k, v in driver.recorder.totals()[0].items() if k != layers.STATEMENT),
            latency_s,
        ),
    }
    if fleet is not None:
        request_ms = _ratio(fleet["request_s"] * 1e3, fleet["requests"])
        plain = driver.of_mode("plain")
        out.update({
            "fleet.request_ms": request_ms,
            "fleet.wait_ms": _ratio(sum(s.ms for s in plain), len(plain)) - request_ms,
            "fleet.worker_opt_share": _ratio(fleet["opt_s"], fleet["request_s"]),
            "fleet.concurrency_gain": _ratio(cost("single"), cost("plain")),
            "fleet.route_imbalance": fleet["route_imbalance"],
            "fleet.shared_hit_share": _ratio(
                cache.get("shared_hits", 0), cache.get("shared_hits", 0) + cache.get("misses", 0)
            ),
            "fleet.restarts": fleet["restarts"],
        })
    return out


# ----------------------------------------------------------------------
# Entry point of the subprocess
# ----------------------------------------------------------------------

class _Setup:
    """Set-up time: the sum of its stages, raw and scaled.

    Data generation and oracle loading are too long to scale stage by
    stage, so the whole set-up is scaled by the median of the probes
    taken after every stage; the warm-up pass is one stage per statement.
    """

    def __init__(self):
        self.raw = 0.0
        self.probes = [speed_probe()]

    def stage(self, fn, *args, **kwargs):
        start = clock()
        out = fn(*args, **kwargs)
        self.raw += clock() - start
        self.probes.append(speed_probe())
        return out

    @property
    def scaled(self) -> float:
        return self.raw * PROBE_REF_S / statistics.median(self.probes)


def _reference_rows(db, workload: Workload) -> dict:
    reference = oracle.Oracle(db)
    try:
        return {text: reference.expected(text) for text in workload.all_texts()}
    finally:
        reference.close()


def run(
    name: str,
    seed: int,
    seconds,
    traced: bool,
    smoke: bool = False,
    setup_only: bool = False,
    trace_out=None,
) -> dict:
    workload = WORKLOADS[name]
    setup = _Setup()
    scale = min(workload.scale, SMOKE_SCALE) if smoke else workload.scale
    db = setup.stage(build_populated_db, scale=scale)
    expected = setup.stage(_reference_rows, db, workload)
    recorder = layers.LayerRecorder() if traced else None
    driver = setup.stage(
        FleetDriver if workload.fleet_workers else SessionDriver, workload, db, expected, recorder
    )
    try:
        sim_exec_s = driver.warm_up(setup.stage)
        setup.stage(gc.collect)
        if setup_only:
            return {"workload": name, "setup_s": setup.scaled, "raw_setup_s": setup.raw}
        driver.measure(seed, seconds, smoke)
        inputs = driver.layer_inputs() if traced else None
    finally:
        driver.close()
    samples = driver.samples
    failures = [s.failure for s in samples if s.failure]
    degraded = driver.bad_sources()
    failed = len(failures) + degraded
    if degraded:
        failures.append(f"{degraded} statements served from a degraded plan source")
    sources = [e.source for e in expected.values()]
    result = {
        "workload": name,
        "why": workload.why,
        "traced": traced,
        "seed": seed,
        "attempted": len(samples),
        "failed": failed,
        "failures": failures[:5],
        "oracle": {source: sources.count(source) for source in sorted(set(sources))},
    }
    if traced:
        result["metrics"] = layer_metrics(driver, inputs)
        payload = recorder.chrome_trace()
        problems = repro.validate_chrome_trace(payload)
        if problems:
            raise RuntimeError(f"the spans do not make a valid Chrome trace: {problems[:3]}")
        if trace_out:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
    else:
        scale_to_reference(samples)
        metrics, per_block = end_to_end(samples, workload.clients, scaled=True)
        result["raw"] = {
            **end_to_end(samples, workload.clients, scaled=False)[0],
            "setup_s": setup.raw,
            "machine_speed": statistics.median(s.scale for s in samples),
        }
        metrics.update({
            "setup_s": setup.scaled,
            "fail_share": _ratio(failed, len(samples)),
            # Fleet workers are children, reaped by close(); none otherwise.
            "peak_rss_mb": sum(
                resource.getrusage(who).ru_maxrss / 1024.0
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
            ),
            "sim_exec_s": sim_exec_s,
        })
        result["metrics"] = metrics
        result["blocks"] = per_block
    return result
