"""Tests for the slow-CTC baseline (Sec. III-B motivation)."""

import numpy as np
import pytest

from repro.baselines import SlowCtcCoordinator, SlowCtcNode
from repro.experiments import CoexistenceConfig, run_coexistence
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import office_devices


def build(seed=1, latency=110e-3, reliability=1.0):
    office = office_devices(seed=seed, location="A")
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = SlowCtcCoordinator(office.wifi_receiver)
    node = SlowCtcNode(office.zigbee_sender, "ZR", coordinator,
                       ctc_latency=latency, ctc_reliability=reliability)
    return office, coordinator, node


def test_delivers_bursts_eventually():
    office, coordinator, node = build()
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.3, poisson=False, max_bursts=5,
    )
    office.ctx.sim.run(until=3.0)
    assert node.packets_delivered == 25
    assert coordinator.grants_issued >= 5


def test_requests_pay_the_ctc_latency():
    """The first packet of a burst cannot be served before the CTC latency."""
    office, coordinator, node = build(latency=110e-3)
    node.offer_burst(Burst(created_at=0.0, n_packets=3, payload_bytes=50, burst_id=1))
    office.ctx.sim.run(until=1.0)
    assert node.packets_delivered == 3
    assert min(node.packet_delays) > 0.1


def test_lost_requests_are_retried():
    office, coordinator, node = build(seed=5, reliability=0.5)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=3, payload_bytes=50,
        interval_mean=0.4, poisson=False, max_bursts=4,
    )
    office.ctx.sim.run(until=4.0)
    assert node.packets_delivered == 12
    assert node.requests_lost > 0
    assert node.requests_sent > node.requests_lost


def test_slow_ctc_much_slower_than_bicord():
    """The paper's Sec. III-B claim, measured: ~110 ms of CTC sync latency
    neutralizes the coordination benefit (delays beyond even ECC's)."""
    bicord = run_coexistence(CoexistenceConfig(scheme="bicord", n_bursts=12, seed=3))
    slow = run_coexistence(CoexistenceConfig(scheme="slow-ctc", n_bursts=12, seed=3))
    assert slow.delivery_ratio > 0.9
    assert slow.mean_delay > 4 * bicord.mean_delay
    assert slow.mean_delay > 0.11  # cannot beat the sync latency


def test_scheme_reachable_from_config():
    result = run_coexistence(CoexistenceConfig(scheme="slow-ctc", n_bursts=5, seed=7))
    assert result.scheme == "slow-ctc"
    assert result.whitespaces_issued > 0
