"""Run one workload for a wall-clock budget and measure it from outside.

The load is a closed loop: one trial at a time in this process.  Trials run
in whole passes, and passes repeat until the budget is closest to spent, so
every run measures the same mix of trial kinds.  A timing is reported as the
mean over the workload's trial kinds of each kind's median across passes:
the median drops the passes a burst of host load hit and evens out the
simulation seeds, and the mean weighs every kind of the mix alike however
many passes fit.

Timings are in *reference seconds*.  On a host shared with other machines'
load, the speed of the CPU drifts by up to 1.8x for minutes at a time, and
no statistic over one run removes a drift that lasts the whole run.  So a
fixed load that does not use the program, :func:`host_reference`, is timed
right before and right after every trial, and the trial's wall times are
divided by how much slower than :data:`REFERENCE_S` that load ran.  The
run's ``detail`` record keeps those slowdowns, so raw wall times can be
recovered.

A repeated trial must reproduce its first output exactly, and at the pinned
seed every output must equal ``pinned.json``.  A trial that raises or
mismatches is recorded as failed and the run goes on.

Phases are timed by wrapping the ``run`` of every simulator the trial
builds, reached through ``Calibration.context``: the one call through which
every scenario backend and every CTI collection builds its simulation.
"""

from __future__ import annotations

import functools
import gc
import heapq
import json
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro import telemetry
from repro.experiments.topology import Calibration

from .tracer import Tracer
from .workloads import Outcome, Trial, Workload

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
PINNED_JSON = Path(__file__).resolve().parent / "pinned.json"
#: The seed whose outputs are pinned.
PIN_SEED = 0
#: Largest tolerated gap between the layers' summed self time and trial wall time.
SELF_TIME_TOLERANCE = 0.02

#: Per-trial timings.
TIMED = ("trial_s", "setup_s", "warmup_s", "steady_sim_rate")

#: Typical wall seconds of :func:`host_reference` inside a benchmark run on
#: the host the benchmark was set up on (a 2.1 GHz Intel Xeon, 2 vCPUs).  It
#: only scales the reported timings, so that they read as seconds of that host.
REFERENCE_S = 0.025

#: Program counters read from telemetry in the traced run.
TELEMETRY_COUNTERS = (
    "medium.broadcasts", "medium.link_rows_rebuilt", "medium.accumulator_resyncs",
    "medium.masked_radios", "rssi.captures", "rssi.segments", "rssi.samples",
    "bicord.grants", "detector.detections", "allocator.learning_iterations",
    "roam.scans", "roam.handoffs",
)
#: MAC callbacks that mean a radio decoded (or tried to decode) a frame.
DECODE_CALLBACKS = (
    "WifiMac.on_frame_received", "WifiMac.on_frame_lost",
    "ZigbeeMac.on_frame_received", "ZigbeeMac.on_frame_lost",
)


def load_benchmark() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def load_pins(workload: str, seed: int) -> Dict[str, Outcome]:
    """Pinned outputs of ``workload``; empty unless ``seed`` is the pinned seed."""
    if seed != PIN_SEED:
        return {}
    return json.loads(PINNED_JSON.read_text()).get(workload, {})


def typical(per_kind: Dict[str, List[float]]) -> float:
    """Mean over trial kinds of each kind's median across passes."""
    if not per_kind:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in per_kind.values())


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (list(values) or [0.0]) * 3
    return statistics.quantiles(values, n=4)


class _Cell:
    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> float:
        self.total += value * 0.5
        self.count += 1
        return self.total


def host_reference() -> int:
    """A fixed pure-Python load shaped like an event loop: heap, dict,
    attribute and float work.  It does not touch the program, so a change
    to the program never changes its time."""
    rng = random.Random(0)
    heap: List[Any] = []
    table: Dict[int, float] = {}
    cells = [_Cell() for _ in range(64)]
    for i in range(30000):
        heapq.heappush(heap, (rng.random(), i))
        table[i & 511] = table.get((i * 7) & 511, 0.0) + cells[i & 63].add(1.0)
        if i & 1:
            heapq.heappop(heap)
    return len(heap)


def host_slowdown() -> float:
    """How many times slower than :data:`REFERENCE_S` the host runs now."""
    gc.collect()
    start = time.perf_counter()
    host_reference()
    return (time.perf_counter() - start) / REFERENCE_S


class PhaseClock:
    """Set-up, warm-up and steady-state time of the simulators one trial builds.

    Set-up runs from entering ``Calibration.context`` to the simulator's
    first ``run``.  A ``run`` that crosses the warm-up horizon is split into
    two ``run`` calls there, which fire the same events in the same order.
    """

    def __init__(self, warmup_sim_s: float):
        self.warmup_sim_s = warmup_sim_s
        self.sims: List[Any] = []
        self.setup_s = 0.0
        self.warmup_s = 0.0
        self.steady_wall_s = 0.0
        self.steady_sim_s = 0.0

    def attach(self, sim: Any, built_at: float) -> None:
        self.sims.append(sim)
        run = sim.run
        horizon = self.warmup_sim_s
        pending_setup = [built_at]

        def timed_run(until: Optional[float] = None, max_events: Optional[int] = None) -> None:
            start = time.perf_counter()
            if pending_setup:
                self.setup_s += start - pending_setup.pop()
            now = sim.now
            if now < horizon and max_events is None and until is not None and until > horizon:
                run(until=horizon)
                split = time.perf_counter()
                self.warmup_s += split - start
                start, now = split, sim.now
            run(until=until, max_events=max_events)
            wall = time.perf_counter() - start
            if now < horizon:
                self.warmup_s += wall
            else:
                self.steady_wall_s += wall
                self.steady_sim_s += sim.now - now

        sim.run = timed_run


@contextmanager
def context_hook(on_context: Callable[[Any, float], None]) -> Iterator[None]:
    """Call ``on_context(ctx, built_at)`` on every context ``Calibration`` builds."""
    original = Calibration.context

    @functools.wraps(original)
    def context(self, *args, **kwargs):
        built_at = time.perf_counter()
        ctx = original(self, *args, **kwargs)
        on_context(ctx, built_at)
        return ctx

    Calibration.context = context
    try:
        yield
    finally:
        Calibration.context = original


@dataclass
class RunResult:
    workload: str
    trace: bool
    passes: int = 0
    attempted: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)
    #: First output of every trial key.
    outcomes: Dict[str, Outcome] = field(default_factory=dict)
    #: Timing -> trial kind -> one value per pass, for the trials that passed,
    #: in reference seconds.
    samples: Dict[str, Dict[str, List[float]]] = field(
        default_factory=lambda: {name: {} for name in TIMED}
    )
    #: Trial kind -> the host slowdown each passed trial's timings were divided by.
    slowdowns: Dict[str, List[float]] = field(default_factory=dict)
    #: Exact counters summed over all trials (traced runs only).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds of all trials, summed (compared with the tracer's total).
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    tracer: Optional[Tracer] = None

    @property
    def self_time_error(self) -> float:
        """|summed layer self time - summed trial wall time| / trial wall time."""
        if self.tracer is None or self.wall_s <= 0.0:
            return 0.0
        return abs(sum(self.tracer.self_s) - self.wall_s) / self.wall_s

    @property
    def correct(self) -> bool:
        return not self.failures and self.self_time_error <= SELF_TIME_TOLERANCE

    def _count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def record(self, trial: Trial, outcome: Optional[Outcome], error: Optional[str],
               wall: float, slowdown: float, phases: PhaseClock,
               pins: Dict[str, Outcome]) -> None:
        key = trial.key
        self.attempted += 1
        self.wall_s += wall
        if self.tracer is not None:
            sims = phases.sims
            self._count("sim.events", sum(s.events_processed for s in sims))
            self._count("sim.queue_compactions", sum(s.compactions for s in sims))
            self._count("sim.queue_hwm", max((s.queue_hwm for s in sims), default=0))
        if error is None:
            first = self.outcomes.setdefault(key, outcome)
            if outcome != first:
                error = f"output {outcome!r} differs from this trial's first output {first!r}"
            elif pins and outcome != pins.get(key):
                error = f"output {outcome!r} differs from pinned {pins.get(key)!r}"
        if error is not None:
            self.failures.append({"key": key, "error": error})
            return
        values = {
            "trial_s": wall / slowdown,
            "setup_s": phases.setup_s / slowdown,
            "warmup_s": phases.warmup_s / slowdown,
        }
        if phases.steady_wall_s > 0.0:
            values["steady_sim_rate"] = phases.steady_sim_s * slowdown / phases.steady_wall_s
        for name, value in values.items():
            self.samples[name].setdefault(trial.kind, []).append(value)
        self.slowdowns.setdefault(trial.kind, []).append(slowdown)


def run_workload(workload: Workload, seconds: float, trace: bool = False,
                 pins: Optional[Dict[str, Outcome]] = None) -> RunResult:
    """Run whole passes of ``workload`` until ``seconds`` are closest to spent."""
    pins = pins or {}
    result = RunResult(workload=workload.name, trace=trace)
    tracer = result.tracer = Tracer() if trace else None
    phases = PhaseClock(workload.warmup_sim_s)

    def on_context(ctx: Any, built_at: float) -> None:
        if tracer is not None:
            tracer.attach_sim(ctx.sim)
        phases.attach(ctx.sim, built_at)

    with ExitStack() as stack:
        stack.enter_context(context_hook(on_context))
        if tracer is not None:
            registry = stack.enter_context(telemetry.collect())
            tracer.install()
            stack.callback(tracer.uninstall)
        start = time.perf_counter()
        while True:
            for trial in workload.passes(result.passes):
                phases = PhaseClock(workload.warmup_sim_s)
                outcome, error = None, None
                # Also collects an earlier trial's garbage, which no trial should pay for.
                slowdown = host_slowdown()
                if tracer is not None:
                    tracer.begin()
                began = time.perf_counter()
                try:
                    outcome = trial.run()
                except Exception as exc:  # a failing trial must not end the run
                    traceback.print_exc(file=sys.stderr)
                    error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - began
                if tracer is not None:
                    tracer.end()
                slowdown = (slowdown + host_slowdown()) / 2
                result.record(trial, outcome, error, wall, slowdown, phases, pins)
            result.passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / result.passes / 2 >= seconds:
                break
        if tracer is not None:
            counters = registry.snapshot(spans=False)["counters"]
            for name in TELEMETRY_COUNTERS:
                result.counters[name] = counters.get(name, 0)
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def end_to_end_metrics(result: RunResult) -> Dict[str, float]:
    metrics = {name: typical(result.samples[name]) for name in TIMED}
    metrics["peak_rss_mb"] = result.peak_rss_mb
    return metrics


def per_layer_metrics(result: RunResult) -> Dict[str, float]:
    """Per-trial means of layer self time, calls and exact counters."""
    tracer = result.tracer
    n = max(result.attempted, 1)
    metrics: Dict[str, float] = {}
    for layer, (self_s, calls) in tracer.layer_totals().items():
        metrics[f"{layer}.self_s"] = self_s / n
        metrics[f"{layer}.calls"] = calls / n
    scheduled = tracer.method_calls("sim.schedule") + tracer.method_calls("sim.schedule_at")
    counts = dict(result.counters, **{"sim.scheduled": scheduled})
    for name, value in counts.items():
        metrics[name] = value / n
    starts = tracer.method_calls("Radio.on_transmission_start")
    decodes = sum(tracer.method_calls(name) for name in DECODE_CALLBACKS)
    metrics["sim.fired_ratio"] = counts["sim.events"] / scheduled if scheduled else 0.0
    metrics["rx.decode_ratio"] = decodes / starts if starts else 0.0
    metrics["traced.trial_s"] = typical(result.samples["trial_s"])
    return metrics


def contract_line(result: RunResult, benchmark: Dict[str, Any]) -> Dict[str, Any]:
    """The run's result line: every metric ``BENCHMARK.json`` lists for this mode."""
    if result.trace:
        specs, values = benchmark["per_layer"], per_layer_metrics(result)
    else:
        specs, values = benchmark["end_to_end"], end_to_end_metrics(result)
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }


def detail(result: RunResult) -> Dict[str, Any]:
    """Everything a run measured, for the multi-round mode and result files."""
    out: Dict[str, Any] = {
        "workload": result.workload,
        "trace": result.trace,
        "passes": result.passes,
        "attempted": result.attempted,
        "failures": result.failures,
        "outcomes": result.outcomes,
        "samples": result.samples,
        "slowdowns": result.slowdowns,
        "peak_rss_mb": result.peak_rss_mb,
    }
    if result.tracer is not None:
        out["self_time_error"] = result.self_time_error
        out["paths"] = result.tracer.paths()
    return out

