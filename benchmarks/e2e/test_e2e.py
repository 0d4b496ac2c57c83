"""Self-test of the end-to-end benchmark harness on shrunk inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from repro import scenarios

from .compare import compare, verdict
from .harness import (
    BENCHMARK_JSON,
    PIN_SEED,
    ROOT,
    contract_line,
    load_benchmark,
    load_pins,
    per_layer_metrics,
    run_workload,
)
from .tracer import LAYERS
from .workloads import SEEDS_PER_RUN, WORKLOADS, Trial, Workload, cti_trial, scenario_trial


def tiny_trials():
    """One office scheme with and one without a coordinator, roaming, CTI."""
    return (
        scenario_trial("bicord", scenarios.get_scenario("office", n_bursts=3), 1),
        scenario_trial("csma", scenarios.get_scenario("office", scheme="csma", n_bursts=3), 2),
        scenario_trial(
            "campus-roaming", scenarios.get_scenario("campus-roaming", duration=1.0), 1
        ),
        cti_trial(0, n_traces=4),
    )


@pytest.fixture(scope="module")
def bench_json():
    return load_benchmark()


@pytest.fixture(scope="module")
def untraced():
    return run_workload(Workload("tiny", 0.05, lambda p: tiny_trials()), seconds=0.0)


@pytest.fixture(scope="module")
def traced():
    return run_workload(Workload("tiny", 0.05, lambda p: tiny_trials()), seconds=0.0, trace=True)


def _names_and_units(specs):
    return [(spec["name"], spec["unit"]) for spec in specs]


def test_printed_metrics_are_benchmark_json_metrics(bench_json, untraced, traced):
    line = contract_line(untraced, bench_json)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    printed = [(name, m["unit"]) for name, m in line["metrics"].items()]
    assert printed == _names_and_units(bench_json["end_to_end"])
    assert all(m["value"] > 0 for m in line["metrics"].values())
    traced_line = contract_line(traced, bench_json)
    printed = [(name, m["unit"]) for name, m in traced_line["metrics"].items()]
    assert printed == _names_and_units(bench_json["per_layer"])
    # Nothing the traced run measures is left out of BENCHMARK.json.
    assert set(per_layer_metrics(traced)) == {s["name"] for s in bench_json["per_layer"]}


def test_tracer_and_phase_clock_are_inert(untraced, traced):
    plain = {trial.key: trial.run() for trial in tiny_trials()}
    assert untraced.correct and traced.correct
    assert untraced.outcomes == plain
    assert traced.outcomes == plain


def test_layer_self_times_sum_to_trial_wall_time(traced):
    metrics = per_layer_metrics(traced)
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS) * traced.attempted
    assert self_total == pytest.approx(traced.wall_s, rel=0.02)
    # The trials crossed every layer they exercise.
    for layer in ("sim", "medium", "rx", "mac", "core", "rssi", "cti", "ml", "traffic",
                  "mobility", "scenarios"):
        assert metrics[f"{layer}.calls"] > 0, layer
    assert 0 < metrics["sim.fired_ratio"] <= 1
    assert metrics["roam.scans"] > 0 and metrics["rssi.captures"] > 0


def test_raising_and_mis_digesting_trials_are_counted_as_failed():
    def boom():
        raise RuntimeError("injected")

    good = scenario_trial("bicord", scenarios.get_scenario("office", n_bursts=2), 1)
    wrong = scenario_trial("csma", scenarios.get_scenario("office", scheme="csma", n_bursts=2), 1)
    workload = Workload("faulty", 0.05, lambda p: (Trial("boom", "boom", boom), good, wrong))
    pins = {"boom": "x", "bicord/s1": good.run(), "csma/s1": "not-the-digest"}
    result = run_workload(workload, seconds=0.0, pins=pins)
    assert result.attempted == 3
    assert [f["key"] for f in result.failures] == ["boom", "csma/s1"]
    assert "injected" in result.failures[0]["error"]
    assert not result.correct
    assert list(result.samples["trial_s"]) == ["bicord"]
    line = contract_line(result, load_benchmark())
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 2)


def test_pins_cover_every_trial_of_the_pinned_seed():
    for name, factory in WORKLOADS.items():
        keys = {t.key for p in range(SEEDS_PER_RUN) for t in factory(PIN_SEED).passes(p)}
        assert set(load_pins(name, PIN_SEED)) == keys, name
    assert load_pins("office", PIN_SEED + 1) == {}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "office", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


SPEC = {"name": "trial_s", "unit": "s", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize("change, expected", [
    ([0.80 + 0.001 * i for i in range(10)], "gain"),
    ([1.30 + 0.001 * i for i in range(10)], "WORSE"),
    ([1.02 + 0.001 * i for i in range(10)], "within bound"),
    ([0.80 + 0.001 * i for i in range(9)], "within bound"),  # too few pairs to claim
])
def test_compare_rule(change, expected):
    parent = [1.0 + 0.002 * i for i in range(10)]
    assert verdict(parent, change, SPEC, more_failures=False)["verdict"] == expected


def test_compare_reports_wide_spread_as_unresolved():
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
    assert verdict(noisy, [1.05] * 10, SPEC, more_failures=False)["verdict"] == "unresolved"
    assert verdict(noisy, [0.5] * 10, SPEC, more_failures=False)["verdict"] == "better in every run"
    gain = verdict([1.0] * 10, [0.8] * 10, SPEC, more_failures=True)["verdict"]
    assert gain == "gain not counted: more trials fail"


def test_compare_exit_code_flags_regressions(tmp_path, bench_json):
    def write(path, trial_s, failed=0):
        metrics = {s["name"]: {"value": 1.0, "unit": s["unit"]} for s in bench_json["end_to_end"]}
        rounds = []
        for value in trial_s:
            line_metrics = json.loads(json.dumps(metrics))
            line_metrics["trial_s"]["value"] = value
            rounds.append({"workload": "office", "attempted": 10,
                           "failures": [{"key": "k", "error": "e"}] * failed,
                           "line": {"metrics": line_metrics}})
        path.write_text(json.dumps({"rounds": rounds}))

    write(tmp_path / "parent.json", [1.0] * 10)
    write(tmp_path / "same.json", [1.0] * 10)
    write(tmp_path / "slow.json", [2.0] * 10)
    write(tmp_path / "failing.json", [1.0] * 10, failed=1)
    assert compare(tmp_path / "parent.json", tmp_path / "same.json", bench_json) == 0
    assert compare(tmp_path / "parent.json", tmp_path / "slow.json", bench_json) == 1
    assert compare(tmp_path / "parent.json", tmp_path / "failing.json", bench_json) == 1
