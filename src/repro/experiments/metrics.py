"""Experiment metrics: channel utilization, delay, throughput, detection.

Channel utilization follows the paper's definition (Sec. VIII-D): "we
measure the transmission time of both Wi-Fi and ZigBee devices and add them
together", divided by wall-clock time.  A reserved-but-unused white space
therefore *lowers* utilization — the quantity BiCord optimizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..devices.base import Radio
from .result import ResultBase


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


@dataclass(frozen=True)
class PrecisionRecall:
    """Cross-technology signaling detection quality (Tables I and II)."""

    true_positives: int
    false_positives: int
    salvos: int
    salvos_detected: int

    @property
    def precision(self) -> float:
        total = self.true_positives + self.false_positives
        return self.true_positives / total if total else 0.0

    @property
    def recall(self) -> float:
        return self.salvos_detected / self.salvos if self.salvos else 0.0


class AirtimeProbe:
    """Snapshots radio airtimes to compute utilization over a window."""

    def __init__(self, wifi_radios: Iterable[Radio], zigbee_radios: Iterable[Radio]):
        self.wifi_radios = list(wifi_radios)
        self.zigbee_radios = list(zigbee_radios)
        self._wifi_start = 0.0
        self._zigbee_start = 0.0
        self._time_start = 0.0

    def start(self, now: float) -> None:
        self._time_start = now
        self._wifi_start = sum(r.tx_airtime for r in self.wifi_radios)
        self._zigbee_start = sum(r.tx_airtime for r in self.zigbee_radios)

    def snapshot(self, now: float) -> "UtilizationSnapshot":
        duration = now - self._time_start
        wifi = sum(r.tx_airtime for r in self.wifi_radios) - self._wifi_start
        zigbee = sum(r.tx_airtime for r in self.zigbee_radios) - self._zigbee_start
        return UtilizationSnapshot(duration=duration, wifi_airtime=wifi, zigbee_airtime=zigbee)


@dataclass(frozen=True)
class UtilizationSnapshot:
    duration: float
    wifi_airtime: float
    zigbee_airtime: float

    @property
    def channel_utilization(self) -> float:
        if self.duration <= 0:
            return 0.0
        return (self.wifi_airtime + self.zigbee_airtime) / self.duration

    @property
    def wifi_utilization(self) -> float:
        return self.wifi_airtime / self.duration if self.duration > 0 else 0.0

    @property
    def zigbee_utilization(self) -> float:
        return self.zigbee_airtime / self.duration if self.duration > 0 else 0.0


@dataclass
class CoexistenceResult(ResultBase):
    """Everything a Fig. 10/11/12/13-style run reports."""

    scheme: str
    location: str
    duration: float
    utilization: UtilizationSnapshot
    zigbee_delays: List[float] = field(default_factory=list)
    zigbee_packets_offered: int = 0
    zigbee_packets_delivered: int = 0
    zigbee_packets_dropped: int = 0
    zigbee_payload_bytes: int = 0
    burst_latencies: List[float] = field(default_factory=list)
    control_packets: int = 0
    whitespace_airtime: float = 0.0
    whitespaces_issued: int = 0
    wifi_delays_low_priority: List[float] = field(default_factory=list)
    wifi_delays_high_priority: List[float] = field(default_factory=list)
    wifi_packets_delivered: int = 0
    extra: Dict[str, float] = field(default_factory=dict)
    seed: int = -1

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
    def mean_delay(self) -> float:
        return _mean(self.zigbee_delays)

    @property
    def p95_delay(self) -> float:
        return _percentile(self.zigbee_delays, 95.0)

    @property
    def max_delay(self) -> float:
        return max(self.zigbee_delays) if self.zigbee_delays else 0.0

    @property
    def zigbee_throughput_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return 8.0 * self.zigbee_payload_bytes / self.duration

    @property
    def delivery_ratio(self) -> float:
        if self.zigbee_packets_offered == 0:
            return 0.0
        return self.zigbee_packets_delivered / self.zigbee_packets_offered

    def summary(self) -> Dict[str, float]:
        """Flat dict for table printing."""
        return {
            "utilization": self.channel_utilization,
            "wifi_util": self.wifi_utilization,
            "zigbee_util": self.zigbee_utilization,
            "mean_delay_ms": self.mean_delay * 1e3,
            "p95_delay_ms": self.p95_delay * 1e3,
            "throughput_kbps": self.zigbee_throughput_bps / 1e3,
            "delivery_ratio": self.delivery_ratio,
        }


def aggregate(results: Sequence[CoexistenceResult]) -> Dict[str, float]:
    """Mean of each summary field across repetitions."""
    if not results:
        raise ValueError("no results to aggregate")
    keys = results[0].summary().keys()
    return {
        key: float(np.mean([r.summary()[key] for r in results])) for key in keys
    }
