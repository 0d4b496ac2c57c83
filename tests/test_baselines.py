"""Tests for the baseline schemes: ECC, plain CSMA, predictive."""

import numpy as np
import pytest

from repro.baselines import CsmaNode, EccCoordinator, EccNode, PredictiveNode
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import office_devices


def office_with_wifi(seed=1):
    office = office_devices(seed=seed, location="A")
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    return office


# ----------------------------------------------------------------------
# ECC
# ----------------------------------------------------------------------
def test_ecc_issues_periodic_whitespaces_regardless_of_demand():
    """ECC's core pathology: white spaces are reserved blindly."""
    office = office_with_wifi()
    coordinator = EccCoordinator(office.wifi_receiver, whitespace=20e-3, period=100e-3)
    office.sim.run(until=1.05)
    coordinator.stop()
    assert coordinator.whitespaces_issued == 10
    assert coordinator.whitespace_airtime == pytest.approx(0.2)


def test_ecc_delivers_bursts_inside_windows():
    office = office_with_wifi(seed=2)
    coordinator = EccCoordinator(
        office.wifi_receiver, whitespace=30e-3, period=100e-3, ctc_reliability=1.0
    )
    node = EccNode(office.zigbee_sender, "ZR")
    coordinator.register(node)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=5,
    )
    office.sim.run(until=1.6)
    coordinator.stop()
    assert node.packets_delivered == 25
    assert node.bursts_completed == 5


def test_ecc_delay_dominated_by_period():
    """A burst waits on average about half an ECC period before service."""
    office = office_with_wifi(seed=3)
    coordinator = EccCoordinator(
        office.wifi_receiver, whitespace=30e-3, period=100e-3, ctc_reliability=1.0
    )
    node = EccNode(office.zigbee_sender, "ZR")
    coordinator.register(node)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=True, max_bursts=10,
    )
    office.sim.run(until=3.0)
    coordinator.stop()
    assert np.mean(node.packet_delays) > 0.04  # >> BiCord's ~30 ms


def test_ecc_small_window_smears_burst_over_periods():
    """A 10-packet burst cannot fit a 20 ms window: served across periods."""
    office = office_with_wifi(seed=4)
    coordinator = EccCoordinator(
        office.wifi_receiver, whitespace=20e-3, period=100e-3, ctc_reliability=1.0
    )
    node = EccNode(office.zigbee_sender, "ZR")
    coordinator.register(node)
    node.offer_burst(Burst(created_at=0.0, n_packets=10, payload_bytes=50, burst_id=1))
    office.sim.run(until=1.0)
    coordinator.stop()
    assert node.packets_delivered == 10
    assert node.burst_latencies[0] > 0.25  # at least ~4 periods


def test_ecc_missed_ctc_skips_window():
    office = office_with_wifi(seed=5)
    coordinator = EccCoordinator(
        office.wifi_receiver, whitespace=30e-3, period=100e-3, ctc_reliability=0.0
    )
    node = EccNode(office.zigbee_sender, "ZR")
    coordinator.register(node)
    node.offer_burst(Burst(created_at=0.0, n_packets=2, payload_bytes=50, burst_id=1))
    office.sim.run(until=0.5)
    coordinator.stop()
    assert node.packets_delivered == 0  # never told about any white space


def test_ecc_grant_policy_skips_whitespaces():
    office = office_with_wifi(seed=6)
    coordinator = EccCoordinator(
        office.wifi_receiver, whitespace=20e-3, period=100e-3,
        grant_policy=lambda: False,
    )
    office.sim.run(until=0.55)
    coordinator.stop()
    assert coordinator.whitespaces_issued == 0
    assert coordinator.skipped == 5


def test_ecc_validates_whitespace_vs_period():
    office = office_with_wifi(seed=7)
    with pytest.raises(ValueError):
        EccCoordinator(office.wifi_receiver, whitespace=0.2, period=0.1)


# ----------------------------------------------------------------------
# Plain CSMA
# ----------------------------------------------------------------------
def test_csma_starves_under_saturated_wifi():
    """Paper Sec. VIII-A: >95% loss without coordination."""
    office = office_with_wifi(seed=8)
    node = CsmaNode(office.zigbee_sender, "ZR", app_retries=2)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=8,
    )
    office.sim.run(until=3.0)
    total = node.packets_delivered + node.packets_dropped
    assert total > 0
    assert node.packets_delivered / max(total, 1) < 0.2


def test_csma_works_fine_on_clear_channel():
    office = office_devices(seed=9, location="A")  # no Wi-Fi traffic
    node = CsmaNode(office.zigbee_sender, "ZR")
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=5,
    )
    office.sim.run(until=1.5)
    assert node.packets_delivered == 25
    assert node.packets_dropped == 0


# ----------------------------------------------------------------------
# Predictive
# ----------------------------------------------------------------------
def test_predictive_starves_under_saturated_wifi():
    """Local gap prediction finds no usable white space under saturation."""
    office = office_with_wifi(seed=10)
    node = PredictiveNode(office.zigbee_sender, "ZR")
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=5,
    )
    office.sim.run(until=2.0)
    node.stop()
    assert node.packets_delivered <= 5  # essentially starved


def test_predictive_uses_clear_channel():
    office = office_devices(seed=11, location="A")
    node = PredictiveNode(office.zigbee_sender, "ZR")
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.3, poisson=False, max_bursts=4,
    )
    office.sim.run(until=3.0)
    node.stop()
    assert node.packets_delivered == 20
    assert node.transmit_opportunities >= 4


def test_predictive_exploits_long_artificial_gaps():
    """With Wi-Fi present but gappy, the predictor finds the gaps."""
    office = office_devices(seed=12, location="A")
    cal = office.calibration
    # Sparse Wi-Fi: ~1.2 ms frames every 20 ms leave ~19 ms gaps — plenty
    # for a ZigBee exchange (~5 ms).
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=20e-3,
    )
    node = PredictiveNode(office.zigbee_sender, "ZR", percentile=10.0)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=3, payload_bytes=50,
        interval_mean=0.3, poisson=False, max_bursts=4,
    )
    office.sim.run(until=3.0)
    node.stop()
    assert node.packets_delivered >= 6
