"""Shared builders for protocol-level tests.

Most tests want a deterministic office: no shadowing/fading unless the test
is explicitly about randomness, a Wi-Fi pair 3 m apart, and ZigBee nodes at
controlled distances.
"""

from __future__ import annotations

import sys

import pytest

import repro.context
from repro.context import SimContext, build_context
from repro.devices import WifiDevice, ZigbeeDevice
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
