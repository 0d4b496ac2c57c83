"""Command line: one run, the multi-round mode, ``compare`` and ``pin``.

``--workload W`` runs one workload in this process for ``--seconds`` and
prints its metrics, then a ``detail`` line and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.  Without ``--workload``
the command runs ``--rounds`` untraced rounds, each workload in a fresh
subprocess and interleaved so host-speed drift hits every workload alike,
then one traced round; it prints every metric and writes ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy

from . import BLAS_THREAD_VARS
from .compare import compare
from .harness import (
    PIN_SEED,
    PINNED_JSON,
    ROOT,
    TIMED,
    contract_line,
    detail,
    load_benchmark,
    load_pins,
    quartiles,
    run_workload,
)
from .tracer import LAYERS
from .workloads import SEEDS_PER_RUN, WORKLOADS

#: A child run that takes this long is stuck.
CHILD_TIMEOUT_S = 900


def host_record() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    host = host_record()
    result = run_workload(
        WORKLOADS[args.workload](args.seed), seconds, trace=bool(args.trace),
        pins=load_pins(args.workload, args.seed),
    )
    line = contract_line(result, benchmark)
    info = detail(result)
    info.update(seed=args.seed, seconds=seconds, host=host,
                loadavg_after=list(os.getloadavg()))
    print(f"{args.workload}: seed {args.seed}, trace {args.trace}, {result.passes} passes, "
          f"{result.attempted} trials, {len(result.failures)} failed")
    for failure in result.failures:
        print(f"  FAILED {failure['key']}: {failure['error']}")
    for name, metric in line["metrics"].items():
        spread = ""
        if name in TIMED:
            pooled = [v for values in result.samples[name].values() for v in values]
            q1, _, q3 = quartiles(pooled)
            spread = f"  (all trials: q1 {q1:.6g}, q3 {q3:.6g}, n={len(pooled)})"
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}{spread}")
    if result.trace:
        print(f"  layer self time vs trial wall time: off by {result.self_time_error:.3%}")
    print("detail " + json.dumps(info))
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# The multi-round mode
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Run one (round, workload) pair in a fresh interpreter."""
    cmd = [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _broken_run(workload, trace, f"no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    details = [line for line in lines if line.startswith("detail ")]
    if proc.returncode != 0 or not details:
        return _broken_run(
            workload, trace, f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
        )
    info = json.loads(details[-1][len("detail "):])
    info["line"] = json.loads(lines[-1])
    return info


def _broken_run(workload: str, trace: int, error: str) -> Dict[str, Any]:
    """A child that produced no result counts as one failed trial."""
    return {"workload": workload, "trace": bool(trace), "attempted": 1,
            "failures": [{"key": "*", "error": error}], "outcomes": {},
            "samples": {name: {} for name in TIMED},
            "line": {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}}


def summarize(record: Dict[str, Any], benchmark: Dict[str, Any]) -> Dict[str, Any]:
    summary: Dict[str, Any] = {}
    for name in record["workloads"]:
        runs = [r for r in record["rounds"] if r["workload"] == name]
        traced = [r for r in record["traced"] if r["workload"] == name]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(len(r["failures"]) for r in runs)
        entry: Dict[str, Any] = {"failed": failed, "attempted": attempted,
                                 "failed_frac": failed / attempted if attempted else 1.0}
        for spec in benchmark["end_to_end"]:
            values = [r["line"]["metrics"][spec["name"]]["value"]
                      for r in runs if r["line"]["metrics"]]
            q1, med, q3 = quartiles(values)
            entry[spec["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                   "unit": spec["unit"]}
        # Every round and the traced round must produce the same outputs.
        outcomes = [r["outcomes"] for r in runs + traced]
        keys = set().union(*outcomes) if outcomes else set()
        entry["outputs_agree"] = all(
            len({json.dumps(o[k]) for o in outcomes if k in o}) == 1 for k in keys
        )
        if traced and traced[0]["line"]["metrics"]:
            untraced = entry["trial_s"]["median"]
            traced_trial = traced[0]["line"]["metrics"]["traced.trial_s"]["value"]
            entry["tracer_overhead"] = traced_trial / untraced - 1 if untraced else 0.0
            entry["traced_trial_s"] = traced_trial
            entry["self_time_error"] = traced[0].get("self_time_error")
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["line"]["metrics"].items()}
        summary[name] = entry
    return summary


def print_summary(summary: Dict[str, Any], benchmark: Dict[str, Any]) -> None:
    layer_units = {spec["name"]: spec["unit"] for spec in benchmark["per_layer"]}
    for name, entry in summary.items():
        print(f"\n== {name}: {entry['attempted']} trials, {entry['failed']} failed, "
              f"failed_frac {entry['failed_frac']:.4g} (failed / attempted), "
              f"outputs agree across rounds and the traced round: {entry['outputs_agree']}")
        for spec in benchmark["end_to_end"]:
            m = entry[spec["name"]]
            print(f"  {spec['name']:18s} {m['median']:12.6g} {m['unit']:8s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  over {m['n']} rounds")
        if "per_layer" not in entry:
            continue
        print(f"  tracer overhead: traced trial_s {entry['traced_trial_s']:.6g} s vs untraced "
              f"{entry['trial_s']['median']:.6g} s = {entry['tracer_overhead']:+.1%}; "
              f"layer self time vs trial wall time off by {entry['self_time_error']:.3%}")
        layers = entry["per_layer"]
        total = sum(layers[f"{layer}.self_s"] for layer in LAYERS) or 1.0
        for layer in sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"]):
            s = layers[f"{layer}.self_s"]
            print(f"    {layer + '.self_s':24s} {s:12.6g} s   {s / total:6.1%} of "
                  f"{total:.4g} s   calls {layers[f'{layer}.calls']:.6g}")
        for metric, value in layers.items():
            if not metric.endswith((".self_s", ".calls")):
                print(f"    {metric:24s} {value:12.6g} {layer_units[metric]}")


def run_rounds(args: argparse.Namespace, benchmark: Dict[str, Any]) -> int:
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    names = args.workloads or list(WORKLOADS)
    record: Dict[str, Any] = {"seed": args.seed, "seconds": seconds, "workloads": names,
                              "host_before": host_record(), "rounds": [], "traced": []}
    plan = [(r, name, 0) for r in range(args.rounds) for name in names]
    plan += [(args.rounds, name, 1) for name in names]
    for r, name, trace in plan:
        run = _child(name, args.seed, seconds, trace)
        run["round"] = r
        record["traced" if trace else "rounds"].append(run)
        label = "traced" if trace else f"round {r + 1}/{args.rounds}"
        print(f"{label} {name}: {run['attempted']} trials, {len(run['failures'])} failed",
              flush=True)
        for failure in run["failures"]:
            print(f"  FAILED {failure['key']}: {failure['error']}")
    record["host_after"] = host_record()
    record["summary"] = summarize(record, benchmark)
    print_summary(record["summary"], benchmark)
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"\nwrote {args.out}")
    ok = all(e["failed"] == 0 and e["outputs_agree"] for e in record["summary"].values())
    ok = ok and all(r["line"]["correct"] for r in record["traced"])
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Pinning
# ----------------------------------------------------------------------
def pin() -> int:
    """Write the outputs of every trial the pinned seed runs to ``pinned.json``."""
    pins = {
        name: {t.key: t.run() for p in range(SEEDS_PER_RUN) for t in factory(PIN_SEED).passes(p)}
        for name, factory in WORKLOADS.items()
    }
    PINNED_JSON.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_JSON}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark of the paper's workloads (see README.md).",
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process and print its result line")
    parser.add_argument("--seed", type=int, default=0, help="derives every workload input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds one run measures (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics from a traced run")
    parser.add_argument("--rounds", type=int, default=3, help="untraced rounds without --workload")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        help="workloads the rounds run (default: all)")
    parser.add_argument("--out", type=Path, help="write the rounds' full result here")
    commands = parser.add_subparsers(dest="command")
    compare_parser = commands.add_parser(
        "compare", help="judge CHANGE against PARENT, per workload and metric")
    compare_parser.add_argument("parent", type=Path, help="--out result file or directory")
    compare_parser.add_argument("change", type=Path, help="--out result file or directory")
    commands.add_parser("pin", help="rewrite pinned.json from the pinned seed")
    args = parser.parse_args(argv)

    benchmark = load_benchmark()
    if args.command == "compare":
        return compare(args.parent, args.change, benchmark)
    if args.command == "pin":
        return pin()
    if args.workload is not None:
        return run_one(args, benchmark)
    return run_rounds(args, benchmark)
