"""CTI-detection accuracy experiment (Sec. VII-A).

Reproduces the paper's data collection: a ZigBee *collector* records RSSI
segments (40 kHz for 5 ms, 200 repetitions per setting) while exactly one
source is active:

* a ZigBee sender broadcasting 50 B packets every 2 ms;
* a Bluetooth link streaming audio nearby;
* a Wi-Fi sender broadcasting 100 B packets every 1 ms at 1, 3, and 5 m;
* (extension) a microwave oven.

The traces feed two classifiers: the ZiSense-style decision tree answering
"is this Wi-Fi?" (paper: 96.39% accuracy), and the Smoggy-Link k-means
identifier telling Wi-Fi transmitters apart (paper: 89.76% ± 2.14%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..context import SimContext
from ..core.cti import CtiClassifier, InterfererClass, RssiFeatures, extract_features
from ..log import get_logger
from ..core.fingerprint import DeviceIdentifier, Fingerprint, extract_fingerprint
from ..devices import BluetoothLink, MicrowaveOven, WifiDevice, ZigbeeDevice
from ..mac.frames import zigbee_data_frame
from ..ml.kmeans import clustering_accuracy
from ..phy.propagation import Position
from ..phy.rssi import RssiTrace
from ..sim.process import Process
from ..traffic.generators import WifiPacketSource
from .result import ResultBase
from .topology import Calibration

TRACE_DURATION = 5e-3
TRACE_RATE_HZ = 40e3
CAPTURE_SPACING = 8e-3

_LOG = get_logger("cti")


def _capture_many(
    ctx: SimContext,
    collector: ZigbeeDevice,
    n_traces: int,
    warmup: float = 50e-3,
) -> List[RssiTrace]:
    """Capture ``n_traces`` back-to-back RSSI traces at the collector.

    The run stops when the last trace is in: nothing after it is read.
    """
    traces: List[RssiTrace] = []

    def collect(trace: RssiTrace) -> None:
        traces.append(trace)
        if len(traces) == n_traces:
            ctx.sim.stop()

    def driver():
        yield warmup
        while len(traces) < n_traces:
            collector.rssi.capture(TRACE_DURATION, TRACE_RATE_HZ, collect)
            yield CAPTURE_SPACING

    capturing = driver()
    Process(ctx.sim, capturing, name="rssi-capture")
    ctx.sim.run(until=warmup + n_traces * CAPTURE_SPACING + 0.1)
    # The stopped driver still waits on the queue; closing it keeps the
    # simulation, which is garbage now, from holding on to the traces.
    capturing.close()
    return traces


def collect_traces(
    source: str,
    distance_m: float = 2.0,
    n_traces: int = 200,
    seed: int = 0,
    calibration: Optional[Calibration] = None,
) -> Tuple[List[RssiTrace], float]:
    """Record traces with one active source; returns (traces, noise floor).

    ``source`` is one of ``zigbee``, ``bluetooth``, ``wifi``, ``microwave``.
    """
    cal = calibration or Calibration()
    ctx = cal.context(seed=seed, trace_kinds=set())
    collector = ZigbeeDevice(ctx, "collector", Position(0.0, 0.0), channel=cal.zigbee_channel)

    if source == "zigbee":
        sender = ZigbeeDevice(
            ctx, "zb-sender", Position(distance_m, 0.0), channel=cal.zigbee_channel
        )

        def broadcast():
            while True:
                frame = zigbee_data_frame("zb-sender", "*", 50)
                sender.mac.send_forced(frame)
                yield 2e-3

        Process(ctx.sim, broadcast(), name="zb-broadcast")
    elif source == "bluetooth":
        BluetoothLink(ctx, "headset", Position(distance_m, 0.0)).start()
    elif source == "wifi":
        wifi_sender = WifiDevice(
            ctx, "wifi-sender", Position(distance_m, 0.0),
            channel=cal.wifi_channel, data_rate_mbps=cal.wifi_rate_mbps,
            tx_power_dbm=cal.wifi_tx_power_dbm,
        )
        WifiDevice(
            ctx, "wifi-receiver", Position(distance_m + 3.0, 0.0),
            channel=cal.wifi_channel, data_rate_mbps=cal.wifi_rate_mbps,
        )
        WifiPacketSource(
            ctx, wifi_sender.mac, "wifi-receiver",
            payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
        )
    elif source == "microwave":
        MicrowaveOven(ctx, "oven", Position(distance_m, 0.0)).start()
    else:
        raise ValueError(f"unknown source {source!r}")

    traces = _capture_many(ctx, collector, n_traces)
    return traces, collector.radio.noise_floor_dbm


@dataclass
class CtiDataset:
    features: List[RssiFeatures]
    labels: List[InterfererClass]


def build_cti_dataset(
    n_traces: int = 200,
    seed: int = 0,
    wifi_distances: Sequence[float] = (1.0, 3.0, 5.0),
    include_microwave: bool = False,
    calibration: Optional[Calibration] = None,
) -> CtiDataset:
    """The paper's data-collection campaign as one labeled dataset."""
    features: List[RssiFeatures] = []
    labels: List[InterfererClass] = []

    def add(source: str, distance: float, label: InterfererClass, salt: int) -> None:
        traces, floor = collect_traces(
            source, distance_m=distance, n_traces=n_traces,
            seed=seed * 1009 + salt, calibration=calibration,
        )
        _LOG.debug(
            "collected %d %s traces at %.1f m (noise floor %.1f dBm)",
            len(traces), source, distance, floor,
        )
        for trace in traces:
            features.append(extract_features(trace, floor))
            labels.append(label)

    add("zigbee", 2.0, InterfererClass.ZIGBEE, 1)
    add("bluetooth", 2.0, InterfererClass.BLUETOOTH, 2)
    for i, distance in enumerate(wifi_distances):
        add("wifi", distance, InterfererClass.WIFI, 10 + i)
    if include_microwave:
        add("microwave", 2.0, InterfererClass.MICROWAVE, 20)
    _LOG.debug("CTI dataset ready: %d labeled traces", len(features))
    return CtiDataset(features, labels)


@dataclass
class CtiTrialConfig:
    """Parameters of the interferer-classification experiment (Sec. VII-A)."""

    n_traces: int = 100


@dataclass
class CtiAccuracyResult(ResultBase):
    wifi_detection_accuracy: float  # paper: 96.39 %
    multiclass_accuracy: float
    n_train: int
    n_test: int
    seed: int = -1


def run_cti_accuracy(
    config: Optional[CtiTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> CtiAccuracyResult:
    """Train/test the interferer classifier on a fresh synthetic campaign."""
    cfg = config if config is not None else CtiTrialConfig()
    seed = 0 if seed is None else int(seed)
    dataset = build_cti_dataset(n_traces=cfg.n_traces, seed=seed, calibration=calibration)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset.features))
    split = len(order) // 2
    train_idx, test_idx = order[:split], order[split:]
    train_f = [dataset.features[i] for i in train_idx]
    train_y = [dataset.labels[i] for i in train_idx]
    test_f = [dataset.features[i] for i in test_idx]
    test_y = [dataset.labels[i] for i in test_idx]
    classifier = CtiClassifier().fit(train_f, train_y)
    return CtiAccuracyResult(
        wifi_detection_accuracy=classifier.wifi_detection_accuracy(test_f, test_y),
        multiclass_accuracy=classifier.accuracy(test_f, test_y),
        n_train=len(train_f),
        n_test=len(test_f),
        seed=seed,
    )


@dataclass
class DeviceIdTrialConfig:
    """Parameters of the device-identification experiment (Sec. VII-A)."""

    n_traces: int = 100
    distances: Sequence[float] = (1.0, 3.0, 5.0)


@dataclass
class DeviceIdResult(ResultBase):
    accuracy: float  # paper: 89.76 % +- 2.14
    n_devices: int
    n_traces: int
    seed: int = -1


def run_device_identification(
    config: Optional[DeviceIdTrialConfig] = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
) -> DeviceIdResult:
    """Cluster Wi-Fi-transmitter fingerprints and score identification."""
    cfg = config if config is not None else DeviceIdTrialConfig()
    seed = 0 if seed is None else int(seed)
    fingerprints: List[Fingerprint] = []
    truth: List[int] = []
    for device_idx, distance in enumerate(cfg.distances):
        traces, floor = collect_traces(
            "wifi", distance_m=distance, n_traces=cfg.n_traces,
            seed=seed * 13 + device_idx, calibration=calibration,
        )
        for trace in traces:
            fingerprints.append(extract_fingerprint(trace, floor))
            truth.append(device_idx)
    identifier = DeviceIdentifier(
        n_devices=len(cfg.distances), rng=np.random.default_rng(seed)
    )
    labels = identifier.fit(fingerprints)
    accuracy = clustering_accuracy(labels, np.asarray(truth))
    return DeviceIdResult(
        accuracy=accuracy, n_devices=len(cfg.distances),
        n_traces=len(fingerprints), seed=seed,
    )
