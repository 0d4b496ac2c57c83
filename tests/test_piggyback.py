"""Tests for the piggyback extension (paper Sec. VII-B future work).

The extension lets a unicast control packet double as the head-of-line data
packet.  On a clear channel the mechanics must work end to end; under
saturated Wi-Fi the piggybacked copy is usually corrupted (it overlaps the
interference *by design*), so delivery must still happen through the normal
white-space path — the extension may save energy/delay but never packets.
"""

import pytest

from repro.core import BicordConfig, BicordCoordinator, BicordNode
from repro.experiments.topology import location_powermap
from repro.mac.frames import FrameType, zigbee_control_frame
from repro.traffic import Burst, WifiPacketSource, ZigbeeBurstSource

from .helpers import deterministic_context, office_devices, zigbee_pair


def test_send_immediate_acked_control_roundtrip():
    """MAC mechanics: unicast control via send_immediate gets ACKed."""
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    control = zigbee_control_frame("ZS", 120)
    control.destination = "ZR"
    control.seq = 5
    outcomes = []
    sender.mac.on_send_success = lambda f: outcomes.append(("ok", f.seq))
    sender.mac.on_send_failure = lambda f, r: outcomes.append((r, f.seq))
    seen = []
    receiver.mac.on_control_received = lambda f, i: seen.append(f.seq)
    sender.mac.send_immediate(control)
    ctx.sim.run(until=0.1)
    assert outcomes == [("ok", 5)]
    assert seen == [5]


def test_send_immediate_rejects_concurrent_transaction():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    from repro.mac.frames import zigbee_data_frame

    data = zigbee_data_frame("ZS", "ZR", 50)
    data.seq = 1
    sender.mac.send(data)
    control = zigbee_control_frame("ZS", 120)
    control.destination = "ZR"
    with pytest.raises(RuntimeError):
        sender.mac.send_immediate(control)


def test_piggyback_control_deduplicated_at_receiver():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    seen = []
    receiver.mac.on_control_received = lambda f, i: seen.append(f.seq)
    from repro.devices.base import RxInfo

    control = zigbee_control_frame("ZS", 120)
    control.destination = "ZR"
    control.seq = 9
    info = RxInfo(rx_power_dbm=-50.0, success_probability=1.0, min_sinr_db=30.0)
    receiver.mac.on_frame_received(control, info)
    receiver.mac.on_frame_received(control, info)  # retransmitted copy
    assert seen == [9]


def test_piggyback_delivers_on_clear_channel():
    """Without Wi-Fi the node never signals, so piggyback is unused but the
    burst still drains normally (the flag must not break the plain path)."""
    office = office_devices(seed=1, location="A")
    config = BicordConfig()
    config.signaling.piggyback_data = True
    node = BicordNode(office.zigbee_sender, "ZR", config=config,
                      powermap=location_powermap("A"))
    node.offer_burst(Burst(created_at=0.0, n_packets=4, payload_bytes=50, burst_id=1))
    office.sim.run(until=0.5)
    assert node.packets_delivered == 4
    assert node.control_packets_sent == 0


def test_piggyback_never_loses_packets_under_wifi():
    office = office_devices(seed=2, location="A")
    cal = office.calibration
    WifiPacketSource(office.ctx, office.wifi_sender.mac, "F",
                     payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval)
    config = BicordConfig()
    config.signaling.piggyback_data = True
    BicordCoordinator(office.wifi_receiver, config=config)
    node = BicordNode(office.zigbee_sender, "ZR", config=config,
                      powermap=location_powermap("A"))
    ZigbeeBurstSource(office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
                      interval_mean=0.2, poisson=False, max_bursts=6)
    office.sim.run(until=1.6)
    assert node.packets_delivered == 30
    assert node.control_packets_sent > 0


def test_oversized_payload_disables_piggyback():
    """Payloads that do not fit 120 B fall back to broadcast control packets."""
    office = office_devices(seed=3, location="A")
    cal = office.calibration
    WifiPacketSource(office.ctx, office.wifi_sender.mac, "F",
                     payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval)
    config = BicordConfig()
    config.signaling.piggyback_data = True
    BicordCoordinator(office.wifi_receiver, config=config)
    node = BicordNode(office.zigbee_sender, "ZR", config=config,
                      powermap=location_powermap("A"))
    # 115 B payload -> 126 B MPDU > 120 B control size: cannot piggyback.
    ZigbeeBurstSource(office.ctx, node.offer_burst, n_packets=3, payload_bytes=115,
                      interval_mean=0.25, poisson=False, max_bursts=4)
    office.sim.run(until=1.5)
    assert node.piggyback_deliveries == 0
    assert node.packets_delivered == 12
