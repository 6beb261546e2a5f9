"""The performance ledger: one command, every metric by name.

Ledger mode (people)::

    python benchmarks/ledger/run.py --seed 1 --out LEDGER.json
    python benchmarks/ledger/run.py --smoke
    python benchmarks/ledger/run.py --compare A.json B.json
    python benchmarks/ledger/run.py --selfcheck

runs every workload in a fresh subprocess, first untraced for the
end-to-end metrics, then traced for the per-layer metrics, checks every
result set against the oracle and prints every metric with its unit.

Contract mode (the driver that gates later PRs, see ``BENCHMARK.json``)::

    python3 benchmarks/ledger/run.py --workload adhoc_cold --seed 3 --seconds 20 --trace 0

runs one workload one way and prints one JSON object as its last line.
Both modes start the same subprocess with ``PYTHONHASHSEED=0`` and this
checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["fail_share"] = "ratio"
#: Set-ups per untraced run, each in its own process; ``setup_s`` is
#: their median.  A third would not fit the driver's time budget.
SETUP_REPEATS = 2


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------

def _child(**args) -> dict:
    """``harness.run(**args)`` in a fresh interpreter; its result."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"ledger: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    env = dict(os.environ, PYTHONHASHSEED="0")
    paths = [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(path for path in paths if path)
    code = "import json, sys, harness; print(json.dumps(harness.run(**json.loads(sys.argv[1]))))"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(args)],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=900,
    )
    if done.returncode != 0:
        sys.exit(f"ledger: {args['name']} subprocess exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds, traced: bool, *, smoke=False, trace_out=None) -> dict:
    result = _child(
        name=name, seed=seed, seconds=seconds, traced=traced, smoke=smoke, trace_out=trace_out
    )
    if not traced and not smoke:
        setups = [result["metrics"]["setup_s"]]
        for _ in range(SETUP_REPEATS - 1):
            extra = _child(name=name, seed=seed, seconds=seconds, traced=False, setup_only=True)
            setups.append(extra["setup_s"])
        result["setup_runs"] = setups
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def print_result(result: dict) -> None:
    kind = "per-layer (traced)" if result["traced"] else "end-to-end (untraced)"
    oracle = ", ".join(f"{n} {source}" for source, n in result["oracle"].items())
    print(f"\n== {result['workload']} · {kind} · seed {result['seed']} · "
          f"{result['attempted']} statements, {result['failed']} failed · oracle: {oracle}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for name, value in result["metrics"].items():
        print(f"   {name:30s} {value:16.6f} {UNITS[name]}")
    for name, value in result.get("raw", {}).items():
        unit = UNITS.get(name, "ratio")
        print(f"   raw.{name:26s} {value:16.6f} {unit}  (not scaled to reference speed)")


def header(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": datetime.date.today().isoformat(),
        "seed": seed,
    }


def run_set(names: list[str], seed: int, seconds, smoke: bool, trace_out) -> dict:
    report = {"header": header(seed), "workloads": {}}
    for name in names:
        print(f"\n# {name}: {WHY[name]}")
        # Timing does not matter in a smoke run, so its two subprocesses
        # share the machine; otherwise they run one after the other.
        with ThreadPoolExecutor(max_workers=2 if smoke else 1) as pool:
            futures = [
                pool.submit(measure, name, seed, seconds, False, smoke=smoke),
                pool.submit(measure, name, seed, seconds, True, smoke=smoke, trace_out=trace_out),
            ]
            untraced, traced = (future.result() for future in futures)
        print_result(untraced)
        print_result(traced)
        report["workloads"][name] = {"untraced": untraced, "traced": traced}
    return report


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"blocks median {q2:.4g} [{q1:.4g} .. {q3:.4g}]"


def compare(a: dict, b: dict) -> int:
    """Apply the BENCHMARK.json bounds per (metric, workload); B against A.
    Returns the number of pairs that are worse than their bound."""
    worse = 0
    print(f"A: {a['header']}\nB: {b['header']}")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ua, ub = a["workloads"][name]["untraced"], b["workloads"][name]["untraced"]
        print(f"\n{name}")
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va, vb = ua["metrics"][key], ub["metrics"][key]
            change = (vb - va) / va if va else 0.0
            bad = change > bound if metric["better"] == "lower" else -change > bound
            worse += bad
            spread = _quartiles(ub.get("blocks", {}).get(key, []))
            print(f"  {key:14s} A {va:14.6f}  B {vb:14.6f} {metric['unit']:6s} "
                  f"{change:+8.2%} (bound {bound:g})  {'WORSE' if bad else 'ok':5s} {spread}")
        for label, side in (("A", ua), ("B", ub)):
            if side["failed"]:
                worse += 1
                share = side["metrics"]["fail_share"]
                print(f"  fail_share     {label} {share:.6f}  WORSE (must be 0)")
    return worse


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WHY), help="run one workload (default all)")
    parser.add_argument("--seed", type=int, default=1, help="drives shuffles and literal draws")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window (default: the workload's round count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="contract mode: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", help="write the ledger-mode report as JSON")
    parser.add_argument("--trace-out", help="write the traced run's spans as Chrome-trace JSON")
    parser.add_argument("--smoke", action="store_true", help="one round of each, no repeats")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets back to back; non-zero exit if they disagree")
    parser.add_argument("--out-dir", default=".", help="where --selfcheck writes its two reports")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(a, b) else 0

    if args.trace_out and args.workload is None:
        parser.error("--trace-out needs --workload: one trace file holds one workload")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         trace_out=args.trace_out)
        wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }))
        return 0

    names = [args.workload] if args.workload else list(WHY)
    if args.selfcheck:
        stamp = datetime.date.today().isoformat()
        reports = []
        for label in "ab":
            report = run_set(names, args.seed, args.seconds, False, None)
            path = Path(args.out_dir) / f"LEDGER_{stamp}_{label}.json"
            path.write_text(json.dumps(report, indent=1))
            reports.append(report)
        return 1 if compare(*reports) else 0

    report = run_set(names, args.seed, args.seconds, args.smoke, args.trace_out)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    failed = sum(r["failed"] for w in report["workloads"].values() for r in w.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
