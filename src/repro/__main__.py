"""Command-line interface: explain, run, and replay queries.

Usage (against the built-in TPC-DS workload)::

    python -m repro explain "SELECT count(*) FROM store_sales ss"
    python -m repro run "SELECT d_year, count(*) AS n FROM date_dim GROUP BY d_year ORDER BY d_year" --scale 0.1
    python -m repro explain ... --planner          # legacy Planner plan
    python -m repro memo "SELECT ..."              # dump the Memo
    python -m repro dump-metadata catalog.dxl      # export metadata as DXL
    python -m repro explain ... --analyze          # EXPLAIN ANALYZE
    python -m repro stats                          # fleet query statistics
    python -m repro capture dump.dxl "SELECT ..."  # AMPERe capture
    python -m repro replay dump.dxl                # AMPERe offline replay
    python -m repro support                        # Figure 15 counts
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ExecutionMode, OptimizerConfig
from repro.engine.cluster import Cluster
from repro.engine.executor import Executor
from repro.engine.parallel import make_pool
from repro.errors import (
    FallbackError,
    MemoryQuotaExceeded,
    ParseError,
    ReproError,
    SearchTimeout,
    TranslationError,
)
from repro.optimizer import Orca
from repro.planner import LegacyPlanner
from repro.service import connect
from repro.workloads import build_populated_db

#: Distinct exit codes per error family (first isinstance match wins;
#: any other ReproError exits 2).  Documented in README "CLI" section.
EXIT_CODES: tuple[tuple[type, int], ...] = (
    (ParseError, 3),
    (TranslationError, 4),
    (SearchTimeout, 5),
    (MemoryQuotaExceeded, 6),
    (FallbackError, 7),
)


def exit_code_for(exc: ReproError) -> int:
    for klass, code in EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=float, default=0.1,
        help="TPC-DS scale factor (default 0.1)",
    )
    parser.add_argument(
        "--segments", type=int, default=8,
        help="number of simulated segments (default 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="data generator seed"
    )
    parser.add_argument(
        "--planner", action="store_true",
        help="use the legacy Planner instead of Orca",
    )
    parser.add_argument(
        "--disable", action="append", default=[],
        metavar="RULE_OR_FEATURE",
        help="disable a transformation rule by name, or one of: "
             "decorrelation, cte_sharing, partition_elimination, "
             "join_reordering (repeatable)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect a structured optimizer trace and print its "
             "per-stage summary (counts + timings)",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the full trace as JSON to PATH (implies --trace)",
    )
    parser.add_argument(
        "--plan-cache", action="store_true",
        help="enable the parameterized plan cache (repeated query shapes "
             "skip the search and re-bind literals)",
    )
    parser.add_argument(
        "--plan-cache-stats", action="store_true",
        help="print plan-cache hit/miss/eviction counters (implies "
             "--plan-cache)",
    )
    parser.add_argument(
        "--feedback", action="store_true",
        help="enable feedback-driven re-optimization: executed plans' "
             "actual cardinalities are fed back into statistics "
             "derivation for later optimizations of matching shapes",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-query wall-clock search deadline; on expiry the best "
             "plan so far is used, else the session falls back to the "
             "legacy Planner",
    )
    parser.add_argument(
        "--job-limit", type=int, default=None, metavar="N",
        help="deterministic per-query deadline: max job steps across "
             "all search stages",
    )
    parser.add_argument(
        "--memory-quota-mb", type=float, default=None, metavar="MB",
        help="per-query optimizer memory quota; crossing it falls back "
             "to the legacy Planner",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="surface raw optimizer errors (timeout, quota, internal) "
             "with distinct exit codes instead of falling back to the "
             "legacy Planner",
    )
    parser.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="emit a structured JSON slow-query log record (stderr) for "
             "any query slower than MS milliseconds end to end",
    )
    parser.add_argument(
        "--engine", choices=["row", "fused"], default="fused",
        help="execution engine: 'fused' (default) compiles breaker-free "
             "operator chains into generated pipeline functions, 'row' "
             "is the row-at-a-time reference; both produce identical "
             "rows and metrics",
    )
    parser.add_argument(
        "--parallelism", type=int, default=0, metavar="N",
        help="morsel-driven parallelism for the fused engine: dispatch "
             "per-segment streaming morsels across N forked worker "
             "processes (results are float-identical to serial; 0/1 = "
             "serial path)",
    )


def _config(args) -> OptimizerConfig:
    feature_flags = {
        "decorrelation": "enable_decorrelation",
        "cte_sharing": "enable_cte_sharing",
        "partition_elimination": "enable_partition_elimination",
        "join_reordering": "enable_join_reordering",
        "cost_bound_pruning": "enable_cost_bound_pruning",
        "plan_cache": "enable_plan_cache",
        "cardinality_feedback": "enable_cardinality_feedback",
    }
    kwargs = {"segments": args.segments}
    if getattr(args, "engine", None):
        kwargs["execution_mode"] = ExecutionMode.coerce(args.engine)
    if getattr(args, "parallelism", 0):
        kwargs["parallelism"] = args.parallelism
    if getattr(args, "plan_cache", False) or getattr(
        args, "plan_cache_stats", False
    ):
        kwargs["enable_plan_cache"] = True
    if getattr(args, "feedback", False):
        kwargs["enable_cardinality_feedback"] = True
    if getattr(args, "deadline_ms", None) is not None:
        kwargs["search_deadline_ms"] = args.deadline_ms
    if getattr(args, "job_limit", None) is not None:
        kwargs["search_job_limit"] = args.job_limit
    if getattr(args, "memory_quota_mb", None) is not None:
        kwargs["memory_quota_bytes"] = int(args.memory_quota_mb * 1024 * 1024)
    rules = []
    for name in args.disable:
        if name in feature_flags:
            kwargs[feature_flags[name]] = False
        else:
            rules.append(name)
    config = OptimizerConfig(**kwargs)
    if rules:
        config = config.with_disabled(*rules)
    return config


def _tracer(args):
    """A real Tracer when --trace (or --trace-json) was given, else None."""
    if getattr(args, "trace", False) or getattr(args, "trace_json", None):
        from repro.trace import Tracer

        return Tracer()
    return None


def _emit_trace(args, tracer) -> None:
    if tracer is None:
        return
    print()
    if not tracer.stage_counts:
        print("(no trace events: the legacy Planner path is not instrumented)")
    else:
        print(tracer.summary())
    if getattr(args, "trace_json", None):
        with open(args.trace_json, "w", encoding="utf-8") as f:
            f.write(tracer.to_json(indent=2))
        print(f"\ntrace JSON written to {args.trace_json}")


def _emit_cache_stats(args, orca) -> None:
    if not getattr(args, "plan_cache_stats", False):
        return
    if orca is None or orca.plan_cache is None:
        print("\nplan cache: disabled (the legacy Planner has no cache)")
    else:
        print(f"\n{orca.plan_cache.summary()}")


def _slow_log(args):
    """A SlowQueryLog when --slow-query-ms was given, else None."""
    if getattr(args, "slow_query_ms", None) is not None:
        from repro.obs import SlowQueryLog

        return SlowQueryLog(args.slow_query_ms)
    return None


def _optimize(args, db, sql, tracer=None):
    config = _config(args)
    if args.planner:
        # The legacy Planner has no instrumented search; only the
        # execution side of the trace applies to it.
        result = LegacyPlanner(db, config).optimize(sql)
        _emit_cache_stats(args, None)
        return result
    session = connect(
        db, config=config, tracer=tracer,
        fallback=not getattr(args, "no_fallback", False),
        slow_log=_slow_log(args),
    )
    result = session.optimize(sql)
    _emit_cache_stats(args, session.orca)
    return result


def _plan_source_note(result) -> str:
    """A one-line provenance banner for degraded / cached plans."""
    source = getattr(result, "plan_source", None)
    if source in (None, "orca"):
        return ""
    note = f"-- plan source: {source}"
    reason = getattr(result, "fallback_reason", None)
    if reason:
        note += f" (after {reason})"
    return note


def cmd_explain(args) -> int:
    db = build_populated_db(scale=args.scale, seed=args.seed)
    tracer = _tracer(args)
    result = _optimize(args, db, args.sql, tracer)
    note = _plan_source_note(result)
    if note:
        print(note)
    if getattr(args, "analyze", False):
        # EXPLAIN ANALYZE: execute the plan and annotate every node with
        # the actual rows / work / network bytes next to the estimates.
        from repro.telemetry import analyze_execution

        cluster = Cluster(db, segments=args.segments)
        out = analyze_execution(
            result.plan, cluster, result.output_cols,
            execution_mode=ExecutionMode.coerce(args.engine), tracer=tracer,
        )
        print(out.analysis.render())
        print(out.analysis.summary())
    else:
        print(result.explain())
    _emit_trace(args, tracer)
    return 0


def cmd_memo(args) -> int:
    db = build_populated_db(scale=args.scale, seed=args.seed)
    tracer = _tracer(args)
    orca = Orca(db, config=_config(args), tracer=tracer)
    result = orca.optimize(args.sql)
    if result.memo is None:
        print("(plan served from the plan cache; no Memo was built)")
    else:
        print(result.memo.dump())
        stats = result.search_stats
        print(f"\n{stats.num_groups} groups, {stats.num_gexprs} group "
              f"expressions, {stats.jobs_executed} jobs, "
              f"{stats.xform_count} rule applications")
    _emit_cache_stats(args, orca)
    _emit_trace(args, tracer)
    return 0


def cmd_run(args) -> int:
    db = build_populated_db(scale=args.scale, seed=args.seed)
    tracer = _tracer(args)
    result = _optimize(args, db, args.sql, tracer)
    cluster = Cluster(db, segments=args.segments)
    pool = make_pool(args.parallelism, tracer=tracer)
    try:
        out = Executor(
            cluster,
            tracer=tracer,
            execution_mode=ExecutionMode.coerce(args.engine),
            morsel_pool=pool,
        ).execute(result.plan, result.output_cols)
    finally:
        if pool is not None:
            pool.shutdown()
    names = getattr(result, "output_names", None) or [
        c.name for c in result.output_cols
    ]
    print(" | ".join(names))
    limit = args.max_rows
    for row in out.rows[:limit]:
        print(" | ".join("NULL" if v is None else str(v) for v in row))
    if len(out.rows) > limit:
        print(f"... ({len(out.rows)} rows total)")
    print(f"\n{len(out.rows)} rows in {out.simulated_seconds():.4f} "
          "simulated seconds")
    note = _plan_source_note(result)
    if note:
        print(note)
    _emit_trace(args, tracer)
    return 0


def cmd_stats(args) -> int:
    """Run the TPC-DS corpus through a governed, telemetry-instrumented
    session pool and report per-query statistics plus the fleet metrics."""
    from repro.service import SessionPool
    from repro.telemetry import parse_prometheus
    from repro.workloads import QUERIES

    if args.q_error:
        # Q-error aggregates only exist when executed plans feed actuals
        # back through the feedback loop.
        args.feedback = True
        args.execute = True
    db = build_populated_db(scale=args.scale, seed=args.seed)
    config = _config(args)
    pool = SessionPool(
        db,
        max_sessions=args.max_sessions,
        config=config,
        fallback=not getattr(args, "no_fallback", False),
    )
    with pool:
        for query in QUERIES[: args.queries] if args.queries else QUERIES:
            try:
                if args.execute:
                    with pool.session() as s:
                        s.execute(query.sql, analyze=True)
                else:
                    pool.optimize(query.sql)
            except ReproError as exc:
                print(f"-- {query.id}: error [{exc.code}]: {exc}",
                      file=sys.stderr)
    if args.q_error:
        print(pool.stats_store.render_qerror(limit=args.top))
        print()
        print(pool.feedback.summary())
    else:
        print(pool.stats_store.render(limit=args.top))
    print()
    print(pool.telemetry.summary())
    exposition = pool.prometheus()
    # Validate before anyone scrapes it: a malformed exposition format is
    # an error (CI fails the build on it), not a warning.
    parse_prometheus(exposition)
    if args.prometheus_out:
        with open(args.prometheus_out, "w", encoding="utf-8") as f:
            f.write(exposition)
        print(f"\nPrometheus exposition written to {args.prometheus_out}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            f.write(pool.telemetry.to_json(indent=2))
        print(f"telemetry JSON snapshot written to {args.json_out}")
    return 0


def cmd_serve(args) -> int:
    """Serve the TPC-DS corpus from a multi-process optimizer fleet.

    Spawns ``--workers`` optimizer processes behind one endpoint and as
    many closed-loop clients, each sending the next corpus query of the
    pass as soon as its last one is answered (``--passes`` times over);
    health-checks between passes, then drains.  With ``--chaos-rate`` /
    ``--kill-every`` set this doubles as the chaos soak: faults kill or
    wedge workers, the orchestrator restarts them, and the exit status
    asserts the availability contract — 0 only if every request was
    served AND every worker drained cleanly.
    """
    import json
    import threading
    import time

    from repro.fleet import connect as fleet_connect
    from repro.service.faults import FaultSpec
    from repro.telemetry import families, parse_prometheus
    from repro.workloads import QUERIES

    db = build_populated_db(scale=args.scale, seed=args.seed)
    config = _config(args)
    queries = QUERIES[: args.queries] if args.queries else QUERIES
    fault_specs = ()
    if args.wedge_site:
        fault_specs = (FaultSpec(
            site=args.wedge_site, kind="wedge", delay_seconds=600.0,
        ),)
    fleet = fleet_connect(
        db,
        workers=args.workers,
        policy=args.policy,
        config=config,
        fault_specs=fault_specs,
        fault_seed=args.chaos_seed,
        fault_rate=args.chaos_rate,
        request_timeout_seconds=args.request_timeout,
        name="serve",
        flight_dir=args.flight_dir,
        slow_query_ms=args.slow_query_ms,
    )
    errors = 0
    served = 0
    tally = threading.Lock()

    def client(statements) -> None:
        """Closed loop: send the pass's next statement once the last one
        is answered."""
        nonlocal errors, served
        while True:
            with tally:
                query = next(statements, None)
            if query is None:
                return
            try:
                if args.execute:
                    fleet.execute(query.sql)
                else:
                    fleet.optimize(query.sql)
            except ReproError as exc:
                with tally:
                    errors += 1
                print(f"-- {query.id}: error [{exc.code}]: {exc}",
                      file=sys.stderr)
                continue
            with tally:
                served += 1
                count = served
            # Exactly one client sees the count land on each multiple.
            if args.kill_every and count % args.kill_every == 0:
                fleet.kill_worker(count // args.kill_every % args.workers)

    try:
        for pass_no in range(args.passes):
            before, start = served, time.perf_counter()
            statements = iter(queries)
            clients = [
                threading.Thread(target=client, args=(statements,))
                for _ in range(args.workers)
            ]
            for thread in clients:
                thread.start()
            # Every client is back before the health check, so each
            # outcome is "ok" or a restart, never "busy".
            for thread in clients:
                thread.join()
            rate = (served - before) / (time.perf_counter() - start)
            health = fleet.health_check()
            sick = {k: v for k, v in health.items() if v != "ok"}
            print(f"pass {pass_no + 1}/{args.passes}: {served} served, "
                  f"{errors} errors, restarts={fleet.restarts_total}, "
                  f"stmts_per_s={rate:.1f}"
                  + (f", health={sick}" if sick else ""))
        stats = fleet.worker_stats()
        for wid, s in sorted(stats.items()):
            session = s.get("session", {})
            print(f"worker {wid}: pid={s.get('pid')} "
                  f"queries={session.get('queries', 0)} "
                  f"sources={session.get('plan_sources', {})}")
        exposition = fleet.prometheus()
        parse_prometheus(exposition)
        print(fleet.summary())
    finally:
        drained = fleet.close()
    clean = all(info.get("drained") and info.get("exitcode") == 0
                for info in drained.values())
    # A client that crashed (its traceback is on stderr) leaves
    # statements unsent, which is not availability either.
    available = (
        fleet.availability == 1.0
        and errors == 0
        and served == args.passes * len(queries)
    )
    print(f"drained: {'clean' if clean else drained}")

    def _pct(q):
        seconds = fleet.telemetry.quantile(families.FLEET_REQUEST_SECONDS, q)
        return None if seconds is None else round(seconds * 1000.0, 3)

    latency = {"p50_ms": _pct(0.50), "p95_ms": _pct(0.95),
               "p99_ms": _pct(0.99)}
    print("request latency: "
          + " ".join(f"{k[:3]}={v}ms" for k, v in latency.items()))
    if args.flight_dir:
        import os

        dumps = sorted(
            f for f in os.listdir(args.flight_dir)
            if f.startswith("flight-") and f.endswith(".json")
        ) if os.path.isdir(args.flight_dir) else []
        print(f"flight-recorder dumps in {args.flight_dir}: {len(dumps)}")
    if args.report:
        report = {
            "workers": args.workers,
            "policy": args.policy,
            "passes": args.passes,
            "queries_per_pass": len(queries),
            "served": served,
            "errors": errors,
            "restarts": fleet.restarts_total,
            "availability": fleet.availability,
            "drain_clean": clean,
            "latency": latency,
            "chaos": {"rate": args.chaos_rate, "seed": args.chaos_seed,
                      "kill_every": args.kill_every,
                      "wedge_site": args.wedge_site},
            "drain": {str(k): {"drained": v.get("drained"),
                               "exitcode": v.get("exitcode")}
                      for k, v in drained.items()},
        }
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2)
        print(f"fleet report written to {args.report}")
    return 0 if (clean and available) else 1


def cmd_trace(args) -> int:
    """Run one query under tracing and export a stitched Chrome trace.

    Single-process by default; with ``--fleet N`` the query is routed
    through an N-worker fleet and the trace stitches orchestrator and
    worker spans (one trace_id) into one Perfetto-loadable timeline.
    """
    import json

    from repro.obs import tracer_chrome_trace, validate_chrome_trace
    from repro.trace import Tracer

    db = build_populated_db(scale=args.scale, seed=args.seed)
    config = _config(args)
    tracer = Tracer()
    if args.fleet:
        from repro.fleet import connect as fleet_connect

        fleet = fleet_connect(
            db, workers=args.fleet, config=config, tracer=tracer,
            name="trace",
        )
        try:
            if args.execute:
                fleet.execute(args.sql)
            else:
                fleet.optimize(args.sql)
        finally:
            fleet.close()
    else:
        session = connect(
            db, config=config, tracer=tracer,
            fallback=not getattr(args, "no_fallback", False),
        )
        if args.execute:
            session.execute(args.sql)
        else:
            session.optimize(args.sql)
    payload = tracer_chrome_trace(tracer)
    problems = validate_chrome_trace(payload)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
    processes = {
        s.data.get("process", "orchestrator") for s in tracer.spans
    }
    print(f"trace {tracer.trace_id}: {len(tracer.spans)} spans across "
          f"{len(processes)} process(es) written to {args.out}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_dump_metadata(args) -> int:
    from repro.dxl import serialize_metadata, to_string

    db = build_populated_db(scale=args.scale, seed=args.seed)
    text = to_string(serialize_metadata(db))
    with open(args.path, "w", encoding="utf-8") as f:
        f.write(text)
    print(f"wrote {len(text)} bytes of DXL metadata to {args.path}")
    return 0


def cmd_capture(args) -> int:
    from repro.verify.ampere import capture_dump

    db = build_populated_db(scale=args.scale, seed=args.seed)
    config = _config(args)
    tracer = _tracer(args)
    result = Orca(db, config=config, tracer=tracer).optimize(args.sql)
    dump = capture_dump(
        db, args.sql, config, expected_plan=result.plan, trace=result.trace
    )
    dump.save(args.path)
    print(f"AMPERe dump written to {args.path}")
    _emit_trace(args, tracer)
    return 0


def cmd_replay(args) -> int:
    from repro.verify.ampere import AMPEReDump, plans_match, replay_dump

    dump = AMPEReDump.load(args.path)
    result = replay_dump(dump)
    print(result.explain())
    if dump.expected_plan_xml is not None:
        ok = plans_match(dump, result)
        print(f"\nplan matches the dump's expected plan: {ok}")
        return 0 if ok else 1
    return 0


def cmd_support(args) -> int:
    from repro.systems.profiles import ALL_PROFILES
    from repro.workloads import TPCDS_DESCRIPTORS
    from repro.workloads.feature_matrix import supported

    print(f"{'engine':10s} {'optimize':>9s}   (of {len(TPCDS_DESCRIPTORS)})")
    for profile in ALL_PROFILES:
        count = sum(
            1 for d in TPCDS_DESCRIPTORS
            if supported(d, profile.unsupported_features)
        )
        print(f"{profile.name:10s} {count:9d}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Orca (SIGMOD 2014) reproduction: optimize and run "
                    "SQL on a simulated MPP cluster over a TPC-DS workload",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("explain", help="print the optimized plan")
    p.add_argument("sql")
    p.add_argument(
        "--analyze", action="store_true",
        help="execute the plan and annotate every node with actual "
             "rows / work / network bytes (EXPLAIN ANALYZE)",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("memo", help="print the Memo after optimization")
    p.add_argument("sql")
    _add_common(p)
    p.set_defaults(fn=cmd_memo)

    p = sub.add_parser("run", help="optimize, execute and print rows")
    p.add_argument("sql")
    p.add_argument("--max-rows", type=int, default=25)
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "stats",
        help="run the TPC-DS corpus through a governed session pool and "
             "print pg_stat_statements-style query statistics + telemetry",
    )
    p.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help="only run the first N corpus queries (default: all)",
    )
    p.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N most-called queries",
    )
    p.add_argument(
        "--max-sessions", type=int, default=2,
        help="pool admission bound (default 2)",
    )
    p.add_argument(
        "--execute", action="store_true",
        help="also execute each query (adds simulated execution work "
             "to the statistics)",
    )
    p.add_argument(
        "--q-error", action="store_true", dest="q_error",
        help="report per-query cardinality q-error aggregates instead of "
             "the call-count table (implies --execute and --feedback)",
    )
    p.add_argument(
        "--prometheus-out", metavar="PATH", default=None,
        help="write the metrics registry in Prometheus text exposition "
             "format to PATH (validated before writing)",
    )
    p.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the telemetry JSON snapshot to PATH",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="serve the TPC-DS corpus from a multi-process optimizer "
             "fleet (optionally under chaos); exit 0 iff 100%% "
             "availability and a clean drain",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="number of worker processes (default 2)",
    )
    p.add_argument(
        "--policy", default="round-robin",
        choices=["round-robin", "least-loaded", "affinity"],
        help="request routing policy (default round-robin)",
    )
    p.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help="only serve the first N corpus queries per pass (default: all)",
    )
    p.add_argument(
        "--passes", type=int, default=1,
        help="number of passes over the corpus (default 1)",
    )
    p.add_argument(
        "--execute", action="store_true",
        help="execute each query on the worker instead of just optimizing",
    )
    p.add_argument(
        "--chaos-rate", type=float, default=0.0, metavar="P",
        help="seeded random fault probability per fault-site hit, "
             "worker-side (default 0: no chaos)",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="seed for the worker fault schedules (required for "
             "--chaos-rate to fire)",
    )
    p.add_argument(
        "--kill-every", type=int, default=0, metavar="N",
        help="hard-kill a worker after every N served requests "
             "(orchestrator-driven chaos; default 0: never)",
    )
    p.add_argument(
        "--wedge-site", default=None, metavar="SITE",
        choices=[None, "xform_apply", "stats_derive", "costing",
                 "extraction"],
        help="plant a wedge fault at SITE on every worker's first hit "
             "(request timeouts must then restart it)",
    )
    p.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request timeout before a worker counts as wedged "
             "(default 60)",
    )
    p.add_argument(
        "--report", metavar="PATH", default=None,
        help="write a JSON fleet report (availability, restarts, drain "
             "status) to PATH",
    )
    p.add_argument(
        "--flight-dir", metavar="DIR", default=None,
        help="directory for worker flight-recorder crash dumps (workers "
             "flush their recent-query ring there on kill/wedge/fault)",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "trace",
        help="run one query under tracing and write a Chrome-trace/"
             "Perfetto JSON timeline (use --fleet N for a stitched "
             "multi-process trace)",
    )
    p.add_argument("sql")
    p.add_argument(
        "--out", metavar="PATH", default="trace.json",
        help="output path for the Chrome-trace JSON (default trace.json)",
    )
    p.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="route the query through an N-worker fleet and stitch "
             "orchestrator + worker spans into one trace (default: "
             "single process)",
    )
    p.add_argument(
        "--execute", action="store_true",
        help="also execute the plan so the trace includes executor "
             "(and fused compile) spans",
    )
    _add_common(p)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("dump-metadata", help="export catalog metadata to DXL")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(fn=cmd_dump_metadata)

    p = sub.add_parser("capture", help="capture an AMPERe dump for a query")
    p.add_argument("path")
    p.add_argument("sql")
    _add_common(p)
    p.set_defaults(fn=cmd_capture)

    p = sub.add_parser("replay", help="replay an AMPERe dump offline")
    p.add_argument("path")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("support", help="Figure 15 engine support counts")
    p.set_defaults(fn=cmd_support)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    raise SystemExit(main())
