"""End-to-end BiCord protocol tests on the office topology."""

import numpy as np
import pytest

from repro.core import BicordConfig, BicordCoordinator, BicordNode
from repro.devices import WifiDevice
from repro.experiments.topology import Calibration, location_powermap
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import deterministic_context, office_devices


def standard_setup(seed=1, location="A", config=None, grant_policy=None):
    office = office_devices(seed=seed, location=location)
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = BicordCoordinator(
        office.wifi_receiver, config=config, grant_policy=grant_policy
    )
    node = BicordNode(
        office.zigbee_sender, "ZR", config=config,
        powermap=location_powermap(location),
    )
    return office, coordinator, node


def test_coordinator_requires_csi_device():
    ctx = deterministic_context()
    from repro.phy.propagation import Position

    plain = WifiDevice(ctx, "W", Position(0, 0))  # no CSI observer
    with pytest.raises(ValueError):
        BicordCoordinator(plain)


def test_burst_delivered_under_saturated_wifi():
    office, coordinator, node = standard_setup()
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=5,
    )
    office.sim.run(until=1.5)
    assert node.packets_delivered == 25
    assert node.bursts_completed == 5
    assert coordinator.grants_issued >= 5


def test_signaling_is_used_when_needed():
    """Under saturated Wi-Fi the node must actually send control packets."""
    office, coordinator, node = standard_setup(seed=2)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=10, payload_bytes=50,
        interval_mean=0.25, poisson=False, max_bursts=6,
    )
    office.sim.run(until=2.0)
    assert node.control_packets_sent > 0
    assert node.signaling_salvos > 0


def test_no_signaling_on_clear_channel():
    """Without Wi-Fi traffic the node never signals (CTI check gates it)."""
    office = office_devices(seed=3)  # no Wi-Fi source attached
    node = BicordNode(office.zigbee_sender, "ZR", powermap=location_powermap("A"))
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=3,
    )
    office.sim.run(until=1.0)
    assert node.packets_delivered == 15
    assert node.control_packets_sent == 0


def test_mean_delay_well_below_ecc_scale():
    """Fig. 10b headline: BiCord keeps mean delay in the tens of ms."""
    office, coordinator, node = standard_setup(seed=4)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=True, max_bursts=10,
    )
    office.sim.run(until=3.0)
    assert node.packets_delivered >= 45
    assert np.mean(node.packet_delays) < 0.08  # paper: ~30 ms; ECC: 100-300 ms


def test_allocator_learns_longer_whitespace_for_bigger_bursts():
    office, coordinator, node = standard_setup(seed=5)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=10, payload_bytes=50,
        interval_mean=0.25, poisson=False, max_bursts=10,
    )
    office.sim.run(until=3.0)
    assert coordinator.allocator.current_whitespace > 0.04
    assert coordinator.allocator.learning_iterations >= 1


def test_grant_policy_veto_blocks_whitespaces():
    office, coordinator, node = standard_setup(seed=6, grant_policy=lambda: False)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=3,
    )
    office.sim.run(until=1.2)
    assert coordinator.grants_issued == 0
    assert coordinator.requests_ignored > 0
    assert node.salvos_abandoned > 0  # the node gave up salvos and backed off


def test_wifi_prr_barely_affected_by_signaling():
    """Sec. V: signaling degrades Wi-Fi PRR by only a few percent."""
    office, coordinator, node = standard_setup(seed=7)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=8,
    )
    office.sim.run(until=2.0)
    mac = office.wifi_sender.mac
    prr = mac.data_delivered / max(mac.data_sent, 1)
    assert prr > 0.9


def test_node_idle_property():
    office, coordinator, node = standard_setup(seed=8)
    assert node.idle
    node.offer_burst(Burst(created_at=0.0, n_packets=2, payload_bytes=30, burst_id=1))
    assert node.outstanding_packets == 2
    office.sim.run(until=1.0)
    assert node.idle


def test_reestimation_timer_fires():
    config = BicordConfig()
    config.allocator.reestimation_period = 0.3
    office, coordinator, node = standard_setup(seed=9, config=config)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=10, payload_bytes=50,
        interval_mean=0.25, poisson=False, max_bursts=4,
    )
    office.sim.run(until=1.4)
    learned = coordinator.allocator.current_whitespace
    # After the last timer reset with no traffic, the allocator is back at
    # the initial step.
    office.sim.run(until=2.0)
    assert coordinator.allocator.current_whitespace == pytest.approx(
        config.allocator.initial_whitespace
    )


def test_coordinator_whitespace_accounting():
    office, coordinator, node = standard_setup(seed=10)
    ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=4,
    )
    office.sim.run(until=1.2)
    assert coordinator.whitespace_airtime == pytest.approx(
        sum(g.duration for g in coordinator.allocator.grants), rel=0.01
    )
