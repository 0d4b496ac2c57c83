"""``python -m benchmarks.e2e compare PARENT CHANGE``: judge a change per workload.

Each side is a result file written by ``--out`` or a directory of them, read
in name order; the untraced rounds of a side, in order, are its runs, and
run *i* of the parent pairs with run *i* of the change.  To alternate which
side runs first, run ``--rounds 1`` once per side in turn.

Per (workload, end-to-end metric) the verdict is:

* ``unresolved`` when the parent's spread (q3 - q1, as a share of its
  median) is wider than the metric's bound, unless every change run reads
  better than every parent run (``better in every run``);
* ``WORSE`` when the change's median is worse than the parent's by more
  than the bound (for ``setup_s``, also by more than 5 ms);
* ``gain`` with at least 10 pairs, a change win in at least 9 of every 10
  pairs (ties count for neither) and a median gap wider than the parent's
  spread — not counted when more trials fail than at the parent;
* ``within bound`` otherwise.

The exit code is 1 when any verdict is ``WORSE`` or more trials fail.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from .harness import quartiles

MIN_PAIRS = 10
MIN_WIN_RATE = 0.9
#: Set-up time may worsen by this much before its bound applies (seconds).
SETUP_FLOOR_S = 0.005


def load_runs(path: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced runs per workload, in order, from a result file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for file in files:
        for run in json.loads(file.read_text())["rounds"]:
            runs.setdefault(run["workload"], []).append(run)
    return runs


def _values(runs: List[Dict[str, Any]], name: str) -> List[float]:
    return [r["line"]["metrics"][name]["value"] for r in runs if r["line"]["metrics"]]


def verdict(parent: List[float], change: List[float], spec: Dict[str, Any],
            more_failures: bool) -> Dict[str, Any]:
    lower = spec["better"] == "lower"

    def better(a: float, b: float) -> bool:
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    spread = p_q3 - p_q1
    worse_by = (c_med - p_med) if lower else (p_med - c_med)
    allowed = spec["bound"] * abs(p_med)
    if spec["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if p_med and spread / abs(p_med) > spec["bound"]:
        if change and all(better(c, p) for c in change for p in parent):
            result = "better in every run"
        else:
            result = "unresolved"
    elif worse_by > allowed:
        result = "WORSE"
    elif len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_RATE * len(pairs) and -worse_by > spread:
        result = "gain not counted: more trials fail" if more_failures else "gain"
    else:
        result = "within bound"
    return {"parent": [p_q1, p_med, p_q3, len(parent)], "change": [c_q1, c_med, c_q3, len(change)],
            "ratio": c_med / p_med if p_med else float("inf"), "wins": wins,
            "pairs": len(pairs), "verdict": result}


def compare(parent_path: Path, change_path: Path, benchmark: Dict[str, Any]) -> int:
    parent, change = load_runs(parent_path), load_runs(change_path)
    any_worse = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_fail = sum(len(r["failures"]) for r in p_runs) / max(sum(r["attempted"] for r in p_runs), 1)
        c_fail = sum(len(r["failures"]) for r in c_runs) / max(sum(r["attempted"] for r in c_runs), 1)
        more_failures = c_fail > p_fail
        any_worse |= more_failures
        print(f"== {workload}: failed_frac parent {p_fail:.4g}, change {c_fail:.4g}"
              + ("  WORSE" if more_failures else ""))
        for spec in benchmark["end_to_end"]:
            v = verdict(_values(p_runs, spec["name"]), _values(c_runs, spec["name"]),
                        spec, more_failures)
            any_worse |= v["verdict"] == "WORSE"
            unit = spec["unit"]
            (pq1, pm, pq3, pn), (cq1, cm, cq3, cn) = v["parent"], v["change"]
            print(f"  {spec['name']:16s} parent {pm:.6g} {unit} [q1 {pq1:.6g}, q3 {pq3:.6g}] n={pn}"
                  f" | change {cm:.6g} {unit} [q1 {cq1:.6g}, q3 {cq3:.6g}] n={cn}"
                  f" | change/parent {v['ratio']:.4f} (base: parent median {pm:.6g} {unit},"
                  f" bound {spec['bound']:.0%}) | change wins {v['wins']}/{v['pairs']} pairs"
                  f" | {v['verdict']}")
    return 1 if any_worse else 0
