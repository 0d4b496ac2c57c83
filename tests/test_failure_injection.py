"""Failure injection: the protocol degrades gracefully, never crashes."""

import numpy as np
import pytest

from repro.core import BicordCoordinator, BicordNode
from repro.devices import ZigbeeDevice
from repro.experiments.topology import location_powermap
from repro.phy.propagation import Position
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import office_devices


def standard(seed=1):
    office = office_devices(seed=seed, location="A")
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = BicordCoordinator(office.wifi_receiver)
    node = BicordNode(office.zigbee_sender, "ZR", powermap=location_powermap("A"))
    return office, coordinator, node


def test_zigbee_receiver_dies_midway():
    """The node keeps signaling/retrying but never crashes or miscounts."""
    office, coordinator, node = standard()
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=8,
    )

    def kill_receiver():
        office.zigbee_receiver.radio.enabled = False

    office.ctx.sim.schedule(0.5, kill_receiver)
    office.ctx.sim.run(until=2.5)
    assert 0 < node.packets_delivered < 40
    assert node.outstanding_packets == 40 - node.packets_delivered
    # Un-ACKed packets keep the salvo machinery busy, not broken.
    assert node.control_packets_sent > 0


def test_wifi_traffic_stops_midway():
    """When the interferer disappears, ZigBee proceeds without signaling."""
    office = office_devices(seed=2, location="A")
    cal = office.calibration
    source = WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = BicordCoordinator(office.wifi_receiver)
    node = BicordNode(office.zigbee_sender, "ZR", powermap=location_powermap("A"))
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=10,
    )
    office.ctx.sim.schedule(0.8, source.stop)
    office.ctx.sim.run(until=2.6)
    assert node.packets_delivered == 50
    # Late bursts ride a clear channel: last delays comparable to clear CSMA.
    late = node.packet_delays[-5:]
    assert np.mean(late) < 0.05


def test_coordinator_stopped_midway():
    """Stopping the coordinator leaves the node on its own (it degrades to
    retry loops) without exceptions."""
    office, coordinator, node = standard(seed=3)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=6,
    )
    office.ctx.sim.schedule(0.45, coordinator.stop)
    office.ctx.sim.run(until=2.0)
    # Earlier bursts were served; later ones may be stuck, never negative.
    assert 0 < node.packets_delivered <= 30
    assert node.outstanding_packets >= 0


def test_detector_flood_does_not_blow_up_grants():
    """A CSI flood (pathological environment) cannot push grants past the
    clamp, and the simulation completes."""
    office, coordinator, node = standard(seed=4)
    # Environment deviation always huge: every sample is a high fluctuation.
    office.wifi_receiver.csi.environment_deviation = lambda now: 0.9
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=5,
    )
    office.ctx.sim.run(until=1.5)
    max_ws = coordinator.config.allocator.max_whitespace
    for grant in coordinator.allocator.whitespace_trajectory():
        assert grant <= max_ws + 1e-12


def test_burst_while_previous_burst_unfinished():
    """Bursts offered faster than they drain queue up and eventually drain."""
    office, coordinator, node = standard(seed=5)
    for i in range(4):
        node.offer_burst(Burst(created_at=0.0, n_packets=5, payload_bytes=50,
                               burst_id=i + 1))
    office.ctx.sim.run(until=2.0)
    assert node.packets_delivered == 20
    assert node.bursts_completed == 4


def test_node_with_unknown_receiver_name():
    """Data addressed to a nonexistent node: no ACKs, no crash."""
    office, coordinator, node = standard(seed=6)
    node.receiver = "GHOST"
    node.offer_burst(Burst(created_at=0.0, n_packets=3, payload_bytes=50, burst_id=1))
    office.ctx.sim.run(until=1.0)
    assert node.packets_delivered == 0
    assert node.outstanding_packets == 3


def test_two_bicord_nodes_share_one_coordinator():
    """Multi-node scenario (Sec. VI, 'multiple ZigBee nodes'): both make
    progress through the shared allocator."""
    office, coordinator, node_a = standard(seed=7)
    second_sender = ZigbeeDevice(office.ctx, "ZS2", Position(2.3, 1.2),
                                 channel=24, tx_power_dbm=-7.0)
    second_receiver = ZigbeeDevice(office.ctx, "ZR2", Position(3.4, 1.7), channel=24)
    node_b = BicordNode(second_sender, "ZR2", powermap=location_powermap("A"))
    ZigbeeBurstSource(office.ctx, node_a.offer_burst, n_packets=4, payload_bytes=50,
                      interval_mean=0.25, poisson=False, max_bursts=6, name="a")
    ZigbeeBurstSource(office.ctx, node_b.offer_burst, n_packets=4, payload_bytes=50,
                      interval_mean=0.25, poisson=False, max_bursts=6, name="b",
                      start_delay=0.1)
    office.ctx.sim.run(until=2.5)
    assert node_a.packets_delivered == 24
    assert node_b.packets_delivered == 24
