"""Roaming experiment: coordination quality under multi-AP handoffs.

The paper evaluates BiCord in static deployments; this experiment asks
what topology churn does to white-space coordination.  One trial runs a
roaming library scenario (``vehicular-corridor`` or ``campus-roaming``)
where the Wi-Fi client physically traverses an ESS and hands off between
APs under a pluggable selection policy; the result pairs the roaming
telemetry (handoffs, ping-pongs, connectivity gap) with the standard
coexistence metrics, so handoff churn can be read directly against
ZigBee PRR and latency.

:func:`roaming_curve` sweeps client speed x AP density x scheme through
the regular sweep engine — cached, parallelizable, and keyed on the
resolved scenario fingerprint like every other grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..schemes import get_scheme
from ..serialization import from_dict
from .result import ResultBase
from .topology import Calibration

#: Library scenarios a roaming trial may run (both expose the
#: ``speed_mps`` / ``n_aps`` / ``scheme`` / ``policy`` factory knobs).
ROAMING_SCENARIOS = ("vehicular-corridor", "campus-roaming")


@dataclass
class RoamingTrialConfig:
    """One roaming run: scenario, motion, AP density, and policy.

    ``speed_mps``/``n_aps``/``scheme``/``policy`` are the sweep axes and
    map onto the scenario factory's parameters; ``params`` passes any
    further factory knobs (spacing, scan cadence, hysteresis...) through
    untouched.  ``spec_fingerprint`` is *derived* — recomputed from the
    resolved spec on construction so it always lands in the sweep cache
    key and a library edit invalidates exactly the affected entries.
    """

    scenario: str = "vehicular-corridor"
    speed_mps: float = 15.0
    n_aps: int = 4
    scheme: str = "bicord"
    policy: str = "strongest-rssi"
    duration: Optional[float] = None
    max_events: Optional[int] = None
    params: Dict[str, Any] = field(default_factory=dict)
    spec_fingerprint: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in ROAMING_SCENARIOS:
            raise ValueError(
                f"unknown roaming scenario {self.scenario!r}; "
                f"expected one of {ROAMING_SCENARIOS}"
            )
        get_scheme(self.scheme)
        spec = self.resolve_spec()
        self.spec_fingerprint = spec.fingerprint()

    def factory_params(self) -> Dict[str, Any]:
        params = dict(self.params)
        params.update(
            speed_mps=self.speed_mps,
            n_aps=self.n_aps,
            scheme=self.scheme,
            policy=self.policy,
        )
        return params

    def resolve_spec(self):
        """Build the effective :class:`~repro.scenarios.ScenarioSpec`."""
        from ..scenarios import get_scenario  # lazy: breaks the import cycle

        spec = get_scenario(self.scenario, **self.factory_params())
        if self.duration is not None:
            spec = dataclasses.replace(spec, duration=float(self.duration))
        return spec


@dataclass
class RoamingResult(ResultBase):
    """Roaming telemetry + coexistence outcome of one trial (flat)."""

    scenario: str
    scheme: str
    policy: str
    speed_mps: float
    n_aps: int
    duration: float
    handoffs: int
    pingpongs: int
    scans: int
    gap_ms: float  # total connectivity gap spent in handoffs
    wifi_prr: float
    prr: float  # ZigBee packet reception ratio
    mean_delay: float
    p95_delay: float
    zigbee_throughput_bps: float
    whitespaces_issued: int
    control_packets: int
    seed: int = -1

    @property
    def handoff_rate_hz(self) -> float:
        return self.handoffs / self.duration if self.duration > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """The numbers a roaming curve plots."""
        return {
            "handoffs": float(self.handoffs),
            "pingpongs": float(self.pingpongs),
            "gap_ms": self.gap_ms,
            "handoff_rate_hz": self.handoff_rate_hz,
            "wifi_prr": self.wifi_prr,
            "prr": self.prr,
            "mean_delay_ms": self.mean_delay * 1e3,
        }


def run_roaming_trial(
    config: Optional[RoamingTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> RoamingResult:
    """Compile and run one roaming scenario (uniform registry contract)."""
    from ..scenarios import compile_scenario  # lazy: breaks the import cycle

    if config is None:
        cfg = RoamingTrialConfig()
    elif isinstance(config, dict):
        cfg = from_dict(RoamingTrialConfig, config)
    else:
        cfg = config
    seed = 0 if seed is None else int(seed)
    compiled = compile_scenario(cfg.resolve_spec(), seed=seed, calibration=calibration)
    result = compiled.run(max_events=cfg.max_events)
    return RoamingResult(
        scenario=cfg.scenario,
        scheme=result.scheme,
        policy=cfg.policy,
        speed_mps=cfg.speed_mps,
        n_aps=cfg.n_aps,
        duration=result.duration,
        handoffs=int(result.extra.get("roam_handoffs", 0.0)),
        pingpongs=int(result.extra.get("roam_pingpongs", 0.0)),
        scans=int(result.extra.get("roam_scans", 0.0)),
        gap_ms=float(result.extra.get("roam_gap_ms", 0.0)),
        wifi_prr=result.wifi_prr,
        prr=result.delivery_ratio,
        mean_delay=result.mean_delay,
        p95_delay=result.p95_delay,
        zigbee_throughput_bps=result.zigbee_throughput_bps,
        whitespaces_issued=result.whitespaces_issued,
        control_packets=result.control_packets,
        seed=seed,
    )


def roaming_curve(
    speeds: Sequence[float] = (1.5, 5.0, 15.0),
    n_aps: Sequence[int] = (2, 4),
    schemes: Sequence[str] = ("bicord", "csma"),
    seeds: Sequence[int] = (0, 1, 2),
    base: Optional[Mapping[str, Any]] = None,
    calibration: Optional[Calibration] = None,
    engine: Optional[Any] = None,
    jobs: int = 1,
    return_run: bool = False,
):
    """Handoff churn vs coexistence quality over speed x density x scheme.

    Runs the grid through the sweep engine (cached + parallelizable) and
    returns one point per (speed, AP count, scheme): mean handoffs,
    ping-pongs, connectivity gap, and the Wi-Fi/ZigBee delivery metrics
    aggregated over seeds.  Pass an existing ``engine`` to share its
    cache configuration; with ``return_run=True`` the underlying
    :class:`SweepRun` is returned alongside the points.
    """
    from .sweep import SweepEngine, SweepSpec  # local: avoids an import cycle

    if engine is None:
        engine = SweepEngine(jobs=jobs)
    spec = SweepSpec(
        experiment="roaming",
        grid={
            "speed_mps": tuple(float(s) for s in speeds),
            "n_aps": tuple(int(n) for n in n_aps),
            "scheme": tuple(schemes),
        },
        base=dict(base or {}),
        seeds=tuple(seeds),
        calibration=calibration,
    )
    run = engine.run(spec)
    points: List[Dict[str, Any]] = []
    for speed in speeds:
        for count in n_aps:
            for scheme in schemes:
                group = [
                    record.result for record in run.records
                    if record.params.get("speed_mps") == speed
                    and record.params.get("n_aps") == count
                    and record.params.get("scheme") == scheme
                ]
                if not group:
                    continue
                n = len(group)
                points.append({
                    "speed_mps": float(speed),
                    "n_aps": int(count),
                    "scheme": scheme,
                    "handoffs_mean": sum(r.handoffs for r in group) / n,
                    "pingpongs_mean": sum(r.pingpongs for r in group) / n,
                    "gap_ms_mean": sum(r.gap_ms for r in group) / n,
                    "wifi_prr_mean": sum(r.wifi_prr for r in group) / n,
                    "prr_mean": sum(r.prr for r in group) / n,
                    "prr_min": min(r.prr for r in group),
                    "mean_delay": sum(r.mean_delay for r in group) / n,
                    "seeds": n,
                })
    if return_run:
        return points, run
    return points
