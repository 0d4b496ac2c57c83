"""The ``scenario`` experiment: run any library scenario via the registry.

This module is the bridge between :mod:`repro.scenarios` and the
experiment registry / sweep engine.  It owns the result dataclasses
(:class:`ScenarioResult` and its per-link breakdowns) and the trial
config (:class:`ScenarioTrialConfig`) so the registry can import them
without importing the scenario subsystem at module load — the heavy
imports happen lazily inside the runner, which breaks the
``experiments <-> scenarios`` cycle.

:class:`ScenarioTrialConfig` resolves its scenario at construction time
and pins the resulting spec's fingerprint into ``spec_fingerprint``.
Because the sweep cache hashes the *fully-resolved* config, the scenario
fingerprint is thereby part of every trial's cache key: editing a library
scenario (or a generator) changes the fingerprint and invalidates exactly
the affected cache entries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..serialization import from_dict
from .metrics import UtilizationSnapshot
from .result import ResultBase
from .topology import Calibration


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


@dataclass
class LinkResult:
    """Per-ZigBee-link outcome of one scenario run."""

    name: str
    offered: int = 0
    delivered: int = 0
    dropped: int = 0
    payload_bytes: int = 0
    control_packets: int = 0
    delays: List[float] = field(default_factory=list)

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def mean_delay(self) -> float:
        return _mean(self.delays)

    @property
    def p95_delay(self) -> float:
        return _percentile(self.delays, 95.0)


@dataclass
class WifiLinkResult:
    """Per-Wi-Fi-link outcome of one scenario run."""

    name: str
    sent: int = 0
    delivered: int = 0
    low_priority_delays: List[float] = field(default_factory=list)
    high_priority_delays: List[float] = field(default_factory=list)

    @property
    def prr(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0

    @property
    def mean_low_priority_delay(self) -> float:
        return _mean(self.low_priority_delays)

    @property
    def mean_high_priority_delay(self) -> float:
        return _mean(self.high_priority_delays)


@dataclass
class ScenarioResult(ResultBase):
    """Everything one compiled-scenario run reports."""

    scenario: str
    seed: int
    scheme: str
    duration: float
    spec_fingerprint: str
    utilization: UtilizationSnapshot
    links: Dict[str, LinkResult] = field(default_factory=dict)
    wifi: Dict[str, WifiLinkResult] = field(default_factory=dict)
    whitespaces_issued: int = 0
    whitespace_airtime: float = 0.0
    current_whitespace: float = 0.0
    events_processed: int = 0
    #: Digest of the trace-kind counters: two runs of the same compiled
    #: scenario are equivalent iff these digests match bitwise.
    trace_digest: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def channel_utilization(self) -> float:
        return self.utilization.channel_utilization

    @property
    def zigbee_utilization(self) -> float:
        return self.utilization.zigbee_utilization

    @property
    def wifi_utilization(self) -> float:
        return self.utilization.wifi_utilization

    @property
    def packets_offered(self) -> int:
        return sum(link.offered for link in self.links.values())

    @property
    def packets_delivered(self) -> int:
        return sum(link.delivered for link in self.links.values())

    @property
    def delivery_ratio(self) -> float:
        offered = self.packets_offered
        return self.packets_delivered / offered if offered else 0.0

    @property
    def all_delays(self) -> List[float]:
        return [d for link in self.links.values() for d in link.delays]

    @property
    def mean_delay(self) -> float:
        return _mean(self.all_delays)

    @property
    def p95_delay(self) -> float:
        return _percentile(self.all_delays, 95.0)

    @property
    def max_delay(self) -> float:
        delays = self.all_delays
        return max(delays) if delays else 0.0

    @property
    def zigbee_throughput_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        payload = sum(link.payload_bytes for link in self.links.values())
        return 8.0 * payload / self.duration

    @property
    def control_packets(self) -> int:
        return sum(link.control_packets for link in self.links.values())

    @property
    def wifi_prr(self) -> float:
        sent = sum(link.sent for link in self.wifi.values())
        delivered = sum(link.delivered for link in self.wifi.values())
        return delivered / sent if sent else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict for sweep tables and manifests."""
        return {
            "utilization": self.channel_utilization,
            "wifi_util": self.wifi_utilization,
            "zigbee_util": self.zigbee_utilization,
            "delivery_ratio": self.delivery_ratio,
            "mean_delay_ms": self.mean_delay * 1e3,
            "p95_delay_ms": self.p95_delay * 1e3,
            "throughput_kbps": self.zigbee_throughput_bps / 1e3,
            "control_packets": float(self.control_packets),
            "whitespaces_issued": float(self.whitespaces_issued),
            "wifi_prr": self.wifi_prr,
            "n_links": float(len(self.links)),
        }


# ======================================================================
# Trial config + runner
# ======================================================================
@dataclass
class ScenarioTrialConfig:
    """One scenario run, addressed by library name + factory parameters.

    ``params`` are keyword arguments of the scenario's factory (see
    ``repro scenario list``); ``duration``/``fault_plan`` override the
    produced spec; ``max_events`` caps the event count (smoke tests).
    ``spec_fingerprint`` is *derived*: it is recomputed from the resolved
    spec on construction, so it lands in the sweep cache key and stale
    values loaded from old cache entries can never lie.
    """

    scenario: str = "office"
    params: Dict[str, Any] = field(default_factory=dict)
    duration: Optional[float] = None
    max_events: Optional[int] = None
    fault_plan: Optional[str] = None
    spec_fingerprint: str = ""

    def __post_init__(self) -> None:
        spec = self.resolve_spec()
        self.spec_fingerprint = spec.fingerprint()

    def resolve_spec(self):
        """Build the effective :class:`~repro.scenarios.ScenarioSpec`."""
        from ..scenarios import get_scenario  # lazy: breaks the import cycle

        spec = get_scenario(self.scenario, **dict(self.params))
        overrides: Dict[str, Any] = {}
        if self.duration is not None:
            overrides["duration"] = float(self.duration)
        if self.fault_plan is not None:
            overrides["fault_plan"] = self.fault_plan
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
        return spec


def run_scenario_trial(
    config: Optional[ScenarioTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> ScenarioResult:
    """Compile and run one scenario (uniform registry contract)."""
    from ..scenarios import compile_scenario  # lazy: breaks the import cycle

    if config is None:
        cfg = ScenarioTrialConfig()
    elif isinstance(config, dict):
        cfg = from_dict(ScenarioTrialConfig, config)
    else:
        cfg = config
    seed = 0 if seed is None else int(seed)
    compiled = compile_scenario(cfg.resolve_spec(), seed=seed, calibration=calibration)
    return compiled.run(max_events=cfg.max_events)
