"""Shared builders for protocol-level tests.

Most tests want a deterministic office: no shadowing/fading unless the test
is explicitly about randomness, a Wi-Fi pair 3 m apart, and ZigBee nodes at
controlled distances.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import pytest

import repro.context
from repro.context import SimContext, build_context
from repro.devices import WifiDevice, ZigbeeDevice
from repro.experiments.topology import (
    LOCATIONS,
    WIFI_RECEIVER_POS,
    WIFI_SENDER_POS,
    ZIGBEE_RECEIVER_OFFSET,
    Calibration,
)
from repro.phy.propagation import FadingModel, PathLossModel, Position


def deterministic_context(seed: int = 1, **kwargs) -> SimContext:
    """A context with zero shadowing/fading so link budgets are exact."""
    kwargs.setdefault("fading", FadingModel(shadowing_sigma_db=0.0, fading_sigma_db=0.0))
    kwargs.setdefault("path_loss", PathLossModel(pl0_db=40.0, exponent=3.0))
    kwargs.setdefault("trace_kinds", set())
    return build_context(seed=seed, **kwargs)


def wifi_pair(ctx: SimContext, distance: float = 3.0, **kwargs):
    """A Wi-Fi sender/receiver pair; the receiver carries the CSI observer."""
    sender = WifiDevice(ctx, "E", Position(0.0, 0.0), **kwargs)
    receiver = WifiDevice(ctx, "F", Position(distance, 0.0), with_csi=True, **kwargs)
    return sender, receiver


def zigbee_pair(ctx: SimContext, sender_pos=None, receiver_pos=None, tx_power_dbm=0.0):
    sender = ZigbeeDevice(
        ctx, "ZS", sender_pos or Position(2.5, 1.0), tx_power_dbm=tx_power_dbm
    )
    receiver = ZigbeeDevice(ctx, "ZR", receiver_pos or Position(4.0, 1.0))
    return sender, receiver


@dataclass
class OfficeDevices:
    """The Fig. 6 office's four radios with nothing wired onto them."""

    ctx: SimContext
    wifi_sender: WifiDevice  # E
    wifi_receiver: WifiDevice  # F (carries the CSI observer)
    zigbee_sender: ZigbeeDevice  # ZS
    zigbee_receiver: ZigbeeDevice  # ZR
    calibration: Calibration

    @property
    def sim(self):
        return self.ctx.sim


def office_devices(
    seed: int = 0,
    location: str = "A",
    calibration: Optional[Calibration] = None,
    trace_kinds=frozenset(),
    faults=None,
) -> OfficeDevices:
    """E, F and a ZigBee pair at ``location``, calibrated like a compiled office.

    For tests that wire parts no scheme builds (FEC nodes, power
    negotiation, hand-made coordinators); experiments compile the
    ``office`` library scenario instead.
    """
    cal = calibration or Calibration()
    ctx = cal.context(seed, trace_kinds=trace_kinds, faults=faults)
    radio = dict(
        channel=cal.wifi_channel, tx_power_dbm=cal.wifi_tx_power_dbm,
        data_rate_mbps=cal.wifi_rate_mbps,
        nonwifi_ed_penalty_db=cal.nonwifi_ed_penalty_db,
    )
    sender = WifiDevice(ctx, "E", WIFI_SENDER_POS, **radio)
    receiver = WifiDevice(
        ctx, "F", WIFI_RECEIVER_POS, with_csi=True, csi_model=cal.csi_model(), **radio
    )
    zs_pos = LOCATIONS[location]
    zigbee_sender = ZigbeeDevice(
        ctx, "ZS", zs_pos, channel=cal.zigbee_channel,
        tx_power_dbm=cal.zigbee_data_power_dbm,
    )
    zigbee_receiver = ZigbeeDevice(
        ctx, "ZR", zs_pos.moved(*ZIGBEE_RECEIVER_OFFSET), channel=cal.zigbee_channel
    )
    return OfficeDevices(ctx, sender, receiver, zigbee_sender, zigbee_receiver, cal)


#: ``VECTOR_MEDIUM_MIN_RADIOS`` values that make every context use one kernel.
_KERNEL_THRESHOLDS = {"legacy": sys.maxsize, "vector": 0}


@pytest.fixture
def force_kernel(monkeypatch):
    """``force_kernel("legacy" | "vector")``: contexts built afterwards use that medium.

    Patches the radio-count threshold :func:`repro.context.build_context`
    picks the medium by, so the equivalence tests and kernel benchmarks can
    run one workload on both kernels; the patch ends with the test.
    """

    def force(kernel: str) -> None:
        monkeypatch.setattr(
            repro.context, "VECTOR_MEDIUM_MIN_RADIOS", _KERNEL_THRESHOLDS[kernel]
        )

    return force
