"""Experiment runners: one function per evaluation scenario of the paper.

Every runner compiles the ``office`` library scenario (the Fig. 6 office)
through :func:`~repro.scenarios.compile_scenario`, attaches what only it
needs before the run (the signaling runner's salvo driver and CSI
detector), and reads its results through the compiled scenario's handles
afterwards.  Which coordinator and node a scheme uses comes from the
scheme table, :mod:`repro.schemes`, so a new scheme reaches every runner
that takes a ``scheme``.

All runners share the uniform signature ``run_x(config, seed, calibration)``
so the experiment registry (:mod:`.registry`) and the sweep engine
(:mod:`.sweep`) can drive any of them interchangeably.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import BicordConfig, DetectorConfig, ZigbeeSignalDetector
from ..faults import FaultPlan
from ..mac.frames import zigbee_ack_frame, zigbee_control_frame, zigbee_data_frame
from ..phy.csi import CsiObserver
from ..schemes import get_scheme
from ..sim.process import Process
from .metrics import CoexistenceResult, PrecisionRecall
from .result import ResultBase
from .topology import Calibration

#: The ZigBee link of every office run.  Its burst source draws from the
#: ``traffic/zigbee-source`` stream, so the name is part of every result.
COEXISTENCE_LINK = "zigbee-source"
#: The priority runner's Wi-Fi link; its phase shuffle draws from the
#: ``traffic/wifi-priority-source`` stream.
PRIORITY_LINK = "wifi-priority-source"


def _office_spec(duration: Optional[float] = None, grace: float = 0.0, **params):
    """The ``office`` library spec with its ZigBee link named :data:`COEXISTENCE_LINK`.

    ``params`` go to the library factory.  ``duration`` replaces the
    factory's horizon when given; ``grace=0`` runs to a fixed horizon with
    no drain.
    """
    from ..scenarios.library import office  # lazy: scenarios imports experiments

    spec = office(**params)
    link = dataclasses.replace(spec.zigbee[0], name=COEXISTENCE_LINK)
    return dataclasses.replace(
        spec,
        duration=spec.duration if duration is None else duration,
        grace=grace,
        zigbee=(link,),
    )


# ======================================================================
# Cross-technology signaling quality (Tables I and II)
# ======================================================================
@dataclass
class SignalingTrialConfig:
    """Parameters of one precision/recall trial (Sec. VIII-B)."""

    location: str = "A"
    power_dbm: float = 0.0
    n_control_packets: int = 4
    n_salvos: int = 200
    salvo_gap: float = 16e-3
    detector_config: Optional[DetectorConfig] = None


@dataclass
class SignalingTrialResult(ResultBase):
    location: str
    power_dbm: float
    n_control_packets: int
    pr: PrecisionRecall
    wifi_prr: float  # Wi-Fi packet reception ratio during the trial
    seed: int = -1

    def summary(self) -> Dict[str, float]:
        return {
            "precision": self.pr.precision,
            "recall": self.pr.recall,
            "true_positives": float(self.pr.true_positives),
            "false_positives": float(self.pr.false_positives),
            "wifi_prr": self.wifi_prr,
        }


def run_signaling_trial(
    config: Optional[SignalingTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> SignalingTrialResult:
    """Measure signaling precision/recall at one (location, power, count).

    The ZigBee sender emits ``n_salvos`` salvos of ``n_control_packets``
    120 B control packets (forced, overlapping Wi-Fi), separated by
    ``salvo_gap`` of silence.  The Wi-Fi receiver runs the CSI detector; no
    white spaces are granted (we only measure detection quality, as in
    Sec. VIII-B).
    """
    from ..scenarios import compile_scenario  # lazy: scenarios imports experiments

    cfg = config if config is not None else SignalingTrialConfig()
    seed = 0 if seed is None else int(seed)
    control_duration = zigbee_control_frame("ZS", 120).duration()
    horizon = 0.1 + cfg.n_salvos * (
        cfg.n_control_packets * (control_duration + 0.5e-3) + cfg.salvo_gap
    )
    # csma wires no coordinator and a ZigBee link with no bursts stays
    # silent: the salvo driver below is the only ZigBee traffic.
    spec = _office_spec(
        duration=horizon, location=cfg.location, scheme="csma", n_bursts=0
    )
    compiled = compile_scenario(spec, seed=seed, calibration=calibration)
    ctx = compiled.ctx
    registry = ctx.telemetry
    cal = calibration if calibration is not None else spec.calibration
    # No scheme consumes CSI here, so the detector brings its own observer.
    receiver = compiled.device("F")
    csi = CsiObserver(receiver.mac, ctx.sim, ctx.streams, model=cal.csi_model())
    detector = ZigbeeSignalDetector(cfg.detector_config)
    csi.subscribe(detector.observe)
    detections: List[float] = []
    detector.on_detection.append(detections.append)

    windows: List[Tuple[float, float]] = []
    zs_mac = compiled.device("ZS").mac

    def salvo_driver():
        # Let Wi-Fi traffic and the CSI baseline settle first.
        yield 50e-3
        for _ in range(cfg.n_salvos):
            start = ctx.sim.now
            for i in range(cfg.n_control_packets):
                control = zigbee_control_frame("ZS", 120)
                ctx.sim.schedule(
                    i * (control_duration + 0.2e-3),
                    zs_mac.send_forced, control, cfg.power_dbm,
                )
            salvo_span = cfg.n_control_packets * (control_duration + 0.2e-3)
            # Detections may trail the salvo by one detector window.
            windows.append((start, start + salvo_span + 5e-3))
            yield salvo_span + cfg.salvo_gap

    driver = Process(ctx.sim, salvo_driver(), name="salvo-driver")
    with registry.span("signaling.sim"):
        run = compiled.run()
    driver.stop()

    tp = fp = 0
    detected_salvos = [False] * len(windows)
    for t in detections:
        hit = False
        for i, (lo, hi) in enumerate(windows):
            if lo <= t <= hi:
                detected_salvos[i] = True
                hit = True
                break
        if hit:
            tp += 1
        else:
            fp += 1
    pr = PrecisionRecall(
        true_positives=tp,
        false_positives=fp,
        salvos=len(windows),
        salvos_detected=sum(detected_salvos),
    )
    wifi = run.wifi[spec.wifi[0].name]
    prr = wifi.delivered / max(wifi.sent, 1)
    # Detection-quality telemetry: this runner sees ground truth (salvo
    # windows), so false wakeups are exact here, unlike in coexistence runs.
    registry.counter("detector.samples_seen").inc(detector.samples_seen)
    registry.counter("detector.detections").inc(detector.detections)
    registry.counter("detector.true_detections").inc(tp)
    registry.counter("detector.false_wakeups").inc(fp)
    return SignalingTrialResult(
        cfg.location, cfg.power_dbm, cfg.n_control_packets, pr, prr, seed=seed
    )


# ======================================================================
# Coexistence comparison (Figs. 10-13)
# ======================================================================
@dataclass
class CoexistenceConfig:
    """One coexistence run's parameters (defaults = Sec. VIII-D setup)."""

    scheme: str = "bicord"
    location: str = "A"
    seed: int = 0
    burst_packets: int = 5
    payload_bytes: int = 50
    burst_interval: float = 200e-3
    poisson: bool = True
    n_bursts: int = 40
    signaling_power_dbm: Optional[float] = None  # None = paper's per-location
    ecc_whitespace: float = 20e-3
    ecc_period: float = 100e-3
    mobility: str = "none"  # "none" | "person" | "device"
    calibration: Calibration = field(default_factory=Calibration)
    bicord_config: BicordConfig = field(default_factory=BicordConfig)
    grace: float = 2.0
    #: Optional fault-injection plan; ``None`` (or an inert plan) runs
    #: fault-free and is bitwise-identical to the pre-faults behavior.
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        get_scheme(self.scheme)
        if self.mobility not in ("none", "person", "device"):
            raise ValueError(f"unknown mobility {self.mobility!r}")


def coexistence_spec(config: CoexistenceConfig):
    """The office :class:`~repro.scenarios.ScenarioSpec` one coexistence run compiles."""
    spec = _office_spec(
        grace=config.grace,
        location=config.location,
        scheme=config.scheme,
        n_bursts=config.n_bursts,
        burst_packets=config.burst_packets,
        payload_bytes=config.payload_bytes,
        burst_interval=config.burst_interval,
        poisson=config.poisson,
        mobility=config.mobility,
    )
    link = dataclasses.replace(
        spec.zigbee[0], signaling_power_dbm=config.signaling_power_dbm
    )
    coordinator = dataclasses.replace(
        spec.coordinator,
        ecc_whitespace=config.ecc_whitespace,
        ecc_period=config.ecc_period,
        bicord=config.bicord_config,
    )
    return dataclasses.replace(spec, zigbee=(link,), coordinator=coordinator)


def run_coexistence(
    config: Optional[CoexistenceConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> CoexistenceResult:
    """Run one coexistence scenario and report the paper's metrics.

    ``seed`` and ``calibration``, when given, override the config's own
    ``seed``/``calibration`` fields (the registry always passes them
    explicitly so every experiment shares one seeding convention).
    """
    from ..scenarios import compile_scenario  # lazy: scenarios imports experiments

    config = config if config is not None else CoexistenceConfig()
    overrides = {}
    if seed is not None:
        overrides["seed"] = int(seed)
    if calibration is not None:
        overrides["calibration"] = calibration
    if overrides:
        config = dataclasses.replace(config, **overrides)
    compiled = compile_scenario(
        coexistence_spec(config),
        seed=config.seed,
        calibration=config.calibration,
        faults=config.faults,
    )
    registry = compiled.ctx.telemetry
    with registry.span("coexist.sim"):
        run = compiled.run()
    link = run.links[COEXISTENCE_LINK]
    result = CoexistenceResult(
        scheme=config.scheme,
        location=config.location,
        duration=run.duration,
        utilization=run.utilization,
        zigbee_delays=link.delays,
        zigbee_packets_offered=link.offered,
        zigbee_packets_delivered=link.delivered,
        zigbee_packets_dropped=link.dropped,
        zigbee_payload_bytes=link.payload_bytes,
        burst_latencies=list(compiled.zigbee_links[COEXISTENCE_LINK].node.burst_latencies),
        control_packets=link.control_packets,
        whitespace_airtime=run.whitespace_airtime,
        whitespaces_issued=run.whitespaces_issued,
        wifi_packets_delivered=sum(wifi.delivered for wifi in run.wifi.values()),
        extra=run.extra,
        seed=config.seed,
    )
    if registry.enabled:
        registry.counter("coexist.zigbee_offered").inc(result.zigbee_packets_offered)
        registry.counter("coexist.zigbee_delivered").inc(result.zigbee_packets_delivered)
        registry.counter("coexist.zigbee_dropped").inc(result.zigbee_packets_dropped)
        registry.counter("coexist.control_packets").inc(result.control_packets)
        registry.counter("coexist.whitespaces_issued").inc(result.whitespaces_issued)
        # Granted vs used white-space time: the allocator's over-provision
        # (Fig. 9) — "used" is the ZigBee airtime that actually ran inside.
        registry.gauge("coexist.whitespace_granted_s").set_max(result.whitespace_airtime)
        registry.gauge("coexist.zigbee_airtime_s").set_max(run.utilization.zigbee_airtime)
        registry.gauge("coexist.channel_utilization").set_max(run.channel_utilization)
    return result


# ======================================================================
# Learning-phase behaviour (Figs. 7, 8, 9)
# ======================================================================
@dataclass
class LearningTrialConfig:
    """Parameters of one white-space learning observation (Sec. VIII-C)."""

    n_packets: int = 10
    step: float = 30e-3
    location: str = "A"
    payload_bytes: int = 50
    burst_interval: float = 200e-3
    n_bursts: int = 15


@dataclass
class LearningTrialResult(ResultBase):
    n_packets: int
    step: float
    location: str
    iterations: int
    converged: bool
    final_whitespace: float
    trajectory: List[float]  # granted lengths over time (Fig. 7 series)
    burst_airtime: float  # data airtime one burst actually needs
    seed: int = -1

    def summary(self) -> Dict[str, float]:
        return {
            "iterations": float(self.iterations),
            "converged": float(self.converged),
            "final_whitespace_ms": self.final_whitespace * 1e3,
            "burst_airtime_ms": self.burst_airtime * 1e3,
        }


def run_learning_trial(
    config: Optional[LearningTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> LearningTrialResult:
    """Observe the white-space learning process for one traffic pattern."""
    from ..scenarios import compile_scenario  # lazy: scenarios imports experiments

    cfg = config if config is not None else LearningTrialConfig()
    seed = 0 if seed is None else int(seed)
    bicord_config = BicordConfig()
    bicord_config.allocator.initial_whitespace = cfg.step
    spec = _office_spec(
        duration=cfg.n_bursts * cfg.burst_interval + 1.0,
        location=cfg.location,
        n_bursts=cfg.n_bursts,
        burst_packets=cfg.n_packets,
        payload_bytes=cfg.payload_bytes,
        burst_interval=cfg.burst_interval,
        poisson=False,
    )
    spec = dataclasses.replace(
        spec, coordinator=dataclasses.replace(spec.coordinator, bicord=bicord_config)
    )
    compiled = compile_scenario(spec, seed=seed, calibration=calibration)
    compiled.run()
    allocator = compiled.coordinator.allocator
    # Data airtime one burst needs (for over-provision accounting, Fig. 9):
    # packet exchange = frame + ACK + 2 turnarounds + pacing gap.
    exchange = (
        zigbee_data_frame("ZS", "ZR", cfg.payload_bytes).duration()
        + zigbee_ack_frame("ZR", "ZS", 0).duration()
        + 2 * 192e-6
        + bicord_config.signaling.inter_packet_gap
    )
    return LearningTrialResult(
        n_packets=cfg.n_packets,
        step=cfg.step,
        location=cfg.location,
        iterations=allocator.learning_iterations,
        converged=allocator.converged,
        final_whitespace=allocator.current_whitespace,
        trajectory=allocator.whitespace_trajectory(),
        burst_airtime=cfg.n_packets * exchange,
        seed=seed,
    )


# ======================================================================
# Priority traffic (Fig. 13)
# ======================================================================
@dataclass
class PriorityTrialConfig:
    """Parameters of the prioritized Wi-Fi traffic scenario (Sec. VIII-G)."""

    scheme: str = "bicord"
    high_proportion: float = 0.3
    total_duration: float = 10.0
    ecc_whitespace: float = 20e-3
    location: str = "A"

    def __post_init__(self) -> None:
        get_scheme(self.scheme, honors_priority=True)


@dataclass
class PriorityResult(ResultBase):
    scheme: str
    high_proportion: float
    utilization: float
    zigbee_utilization: float
    low_priority_wifi_delay: float
    high_priority_wifi_delay: float
    zigbee_mean_delay: float
    seed: int = -1


def run_priority_experiment(
    config: Optional[PriorityTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> PriorityResult:
    """Sec. VIII-G: Wi-Fi mixes video (high) and file (low) traffic.

    The coordinator ignores ZigBee requests while the Wi-Fi device is in a
    high-priority phase.  ``utilization`` and ``zigbee_utilization`` divide
    the airtime of the whole ``total_duration + 0.5`` s run by
    ``total_duration`` alone; that ratio is kept as it is until the
    fidelity ledger (ROADMAP) settles the window.
    """
    from ..scenarios import compile_scenario  # lazy: scenarios imports experiments
    from ..scenarios.spec import (  # lazy: scenarios imports experiments
        CoordinatorSpec,
        WifiLinkSpec,
        WifiTrafficSpec,
    )

    cfg = config if config is not None else PriorityTrialConfig()
    seed = 0 if seed is None else int(seed)
    traffic = WifiTrafficSpec(
        kind="priority",
        high_proportion=cfg.high_proportion,
        total_duration=cfg.total_duration,
    )
    spec = dataclasses.replace(
        _office_spec(
            duration=cfg.total_duration + 0.5,
            location=cfg.location,
            n_bursts=int(cfg.total_duration / 0.2),
        ),
        wifi=(WifiLinkSpec(name=PRIORITY_LINK, traffic=traffic),),
        coordinator=CoordinatorSpec(scheme=cfg.scheme, ecc_whitespace=cfg.ecc_whitespace),
    )
    compiled = compile_scenario(spec, seed=seed, calibration=calibration)
    run = compiled.run()
    snapshot = compiled.probe.snapshot(cfg.total_duration)
    wifi = run.wifi[PRIORITY_LINK]
    delays = run.links[COEXISTENCE_LINK].delays
    return PriorityResult(
        scheme=cfg.scheme,
        high_proportion=cfg.high_proportion,
        utilization=snapshot.channel_utilization,
        zigbee_utilization=snapshot.zigbee_utilization,
        low_priority_wifi_delay=(
            float(np.mean(wifi.low_priority_delays)) if wifi.low_priority_delays else 0.0
        ),
        high_priority_wifi_delay=(
            float(np.mean(wifi.high_priority_delays)) if wifi.high_priority_delays else 0.0
        ),
        zigbee_mean_delay=float(np.mean(delays)) if delays else 0.0,
        seed=seed,
    )


# ======================================================================
# Energy overhead (Sec. VII-B)
# ======================================================================
@dataclass
class EnergyTrialConfig:
    """Parameters of the energy-overhead comparison (Sec. VII-B)."""

    n_packets: int = 10
    payload_bytes: int = 120
    n_bursts: int = 10


@dataclass
class EnergyResult(ResultBase):
    bicord_mj: float
    clear_channel_mj: float
    overhead_fraction: float
    control_packets: int
    seed: int = -1


def run_energy_trial(
    config: Optional[EnergyTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> EnergyResult:
    """Energy of delivering bursts under Wi-Fi (BiCord) vs a clear channel."""
    from ..scenarios import compile_scenario  # lazy: scenarios imports experiments
    from ..scenarios.spec import WifiLinkSpec, WifiTrafficSpec  # lazy: see above

    cfg = config if config is not None else EnergyTrialConfig()
    seed = 0 if seed is None else int(seed)

    def one(with_wifi: bool) -> Tuple[float, int]:
        spec = _office_spec(
            duration=cfg.n_bursts * 0.3 + 1.0,
            n_bursts=cfg.n_bursts,
            burst_packets=cfg.n_packets,
            payload_bytes=cfg.payload_bytes,
            burst_interval=0.3,
            poisson=False,
        )
        if not with_wifi:
            # E and F stay but send nothing: a clear channel, on which the
            # coordinator never sees a frame and so never grants.
            silent = WifiLinkSpec(traffic=WifiTrafficSpec(kind="none"))
            spec = dataclasses.replace(spec, wifi=(silent,))
        compiled = compile_scenario(spec, seed=seed, calibration=calibration)
        run = compiled.run()
        energy = compiled.zigbee_links[COEXISTENCE_LINK].sender.energy
        return energy.total_mj, run.links[COEXISTENCE_LINK].control_packets

    bicord_mj, control = one(with_wifi=True)
    clear_mj, _ = one(with_wifi=False)
    overhead = (bicord_mj - clear_mj) / clear_mj if clear_mj > 0 else 0.0
    return EnergyResult(bicord_mj, clear_mj, overhead, control, seed=seed)
