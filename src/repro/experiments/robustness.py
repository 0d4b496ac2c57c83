"""Robustness experiment: coordination quality under injected faults.

The paper evaluates BiCord with every mechanism working; this experiment
asks how gracefully the protocol degrades when they do not.  One trial
compiles the standard coexistence spec
(:func:`~repro.experiments.runner.coexistence_spec`), or any library
scenario, with a :class:`~repro.faults.FaultPlan` installed; a *curve* sweeps one
fault dimension over a grid of rates and reports PRR and latency
degradation, aggregated over seeds, through the regular sweep engine (so
robustness grids are cached and parallelized like every other figure).

The ``rate=0`` point of every curve runs the inert plan and therefore
reproduces the fault-free coexistence result exactly — a built-in control
that anchors each curve to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..faults import DIMENSIONS, FaultPlan
from ..schemes import get_scheme
from .result import ResultBase
from .runner import CoexistenceConfig, coexistence_spec
from .topology import Calibration


@dataclass
class RobustnessTrialConfig:
    """One faulted coexistence run.

    Either give ``dimension`` + ``rate`` (the sweep axes, expanded via
    :meth:`FaultPlan.from_dimension`) or an explicit ``faults`` plan, which
    takes precedence.  The remaining fields mirror the coexistence workload
    knobs so robustness trials are directly comparable to Figs. 10-12.
    """

    dimension: str = "all"
    rate: float = 0.0
    scheme: str = "bicord"
    location: str = "A"
    burst_packets: int = 5
    payload_bytes: int = 50
    burst_interval: float = 200e-3
    poisson: bool = True
    n_bursts: int = 40
    faults: Optional[FaultPlan] = None
    #: When set, the trial runs a library scenario (``repro.scenarios``)
    #: under the fault plan instead of the standard coexistence workload;
    #: the burst/location knobs above are then ignored.
    scenario: Optional[str] = None
    scenario_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dimension not in DIMENSIONS:
            raise ValueError(
                f"unknown fault dimension {self.dimension!r}; "
                f"expected one of {DIMENSIONS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        get_scheme(self.scheme)

    def plan(self) -> FaultPlan:
        """The effective fault plan of this trial."""
        if self.faults is not None:
            return self.faults
        return FaultPlan.from_dimension(self.dimension, self.rate)


@dataclass
class RobustnessResult(ResultBase):
    """Degradation metrics of one faulted run (flat, cache-friendly)."""

    dimension: str
    rate: float
    scheme: str
    location: str
    duration: float
    prr: float  # ZigBee packet reception ratio (delivered / offered)
    mean_delay: float
    p95_delay: float
    max_delay: float
    zigbee_throughput_bps: float
    wifi_packets_delivered: int
    control_packets: int
    whitespaces_issued: int
    bursts_offered: int
    #: Flat ``fault_*`` injection counts from the trial's harness.
    fault_counters: Dict[str, float] = field(default_factory=dict)
    seed: int = -1

    def summary(self) -> Dict[str, float]:
        """The numbers a degradation curve plots."""
        return {
            "rate": self.rate,
            "prr": self.prr,
            "mean_delay": self.mean_delay,
            "p95_delay": self.p95_delay,
            "throughput_bps": self.zigbee_throughput_bps,
        }


def run_robustness_trial(
    config: Optional[RobustnessTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> RobustnessResult:
    """Run one coexistence trial (or library scenario) under the fault plan."""
    from ..scenarios import compile_scenario, get_scenario  # lazy: import cycle

    cfg = config if config is not None else RobustnessTrialConfig()
    seed = 0 if seed is None else int(seed)
    if cfg.scenario is not None:
        spec = get_scenario(cfg.scenario, **dict(cfg.scenario_params))
    else:
        spec = coexistence_spec(CoexistenceConfig(
            scheme=cfg.scheme,
            location=cfg.location,
            burst_packets=cfg.burst_packets,
            payload_bytes=cfg.payload_bytes,
            burst_interval=cfg.burst_interval,
            poisson=cfg.poisson,
            n_bursts=cfg.n_bursts,
        ))
    compiled = compile_scenario(
        spec, seed=seed, calibration=calibration, faults=cfg.plan()
    )
    result = compiled.run()
    counters = {
        key: value for key, value in result.extra.items() if key.startswith("fault_")
    }
    return RobustnessResult(
        dimension=cfg.dimension,
        rate=cfg.rate,
        scheme=result.scheme,
        location=spec.location,
        duration=result.duration,
        prr=result.delivery_ratio,
        mean_delay=result.mean_delay,
        p95_delay=result.p95_delay,
        max_delay=result.max_delay,
        zigbee_throughput_bps=result.zigbee_throughput_bps,
        wifi_packets_delivered=sum(
            link.delivered for link in result.wifi.values()
        ),
        control_packets=result.control_packets,
        whitespaces_issued=result.whitespaces_issued,
        bursts_offered=result.packets_offered,
        fault_counters=counters,
        seed=seed,
    )


def robustness_curve(
    dimension: str = "all",
    rates: Sequence[float] = (0.0, 0.1, 0.25, 0.5),
    seeds: Sequence[int] = (0, 1, 2),
    base: Optional[Mapping[str, Any]] = None,
    calibration: Optional[Calibration] = None,
    engine: Optional[Any] = None,
    jobs: int = 1,
    return_run: bool = False,
):
    """PRR/latency degradation vs fault rate, aggregated over seeds.

    Runs the grid through the sweep engine (cached + parallelizable) and
    returns one point per rate: mean/min PRR and mean/p95 delay across
    seeds.  Pass an existing ``engine`` to share its cache configuration.
    With ``return_run=True`` the return value is ``(points, run)`` so
    callers can reach the underlying :class:`SweepRun` (cache statistics,
    telemetry snapshot) without re-running the grid.
    """
    from .sweep import SweepEngine, SweepSpec  # local: avoids an import cycle

    if engine is None:
        engine = SweepEngine(jobs=jobs)
    spec = SweepSpec(
        experiment="robustness",
        grid={"rate": tuple(float(rate) for rate in rates)},
        base={"dimension": dimension, **dict(base or {})},
        seeds=tuple(seeds),
        calibration=calibration,
    )
    run = engine.run(spec)
    points: List[Dict[str, float]] = []
    for rate in rates:
        group = [
            record.result for record in run.records
            if record.params.get("rate") == rate
        ]
        if not group:
            continue
        n = len(group)
        points.append({
            "rate": float(rate),
            "prr_mean": sum(r.prr for r in group) / n,
            "prr_min": min(r.prr for r in group),
            "mean_delay": sum(r.mean_delay for r in group) / n,
            "p95_delay": max(r.p95_delay for r in group),
            "throughput_bps": sum(r.zigbee_throughput_bps for r in group) / n,
            "seeds": n,
        })
    if return_run:
        return points, run
    return points
