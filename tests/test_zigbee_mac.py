"""Tests for the 802.15.4 unslotted CSMA/CA MAC."""

import pytest

from repro.mac.frames import zigbee_control_frame, zigbee_data_frame
from repro.mac.zigbee import CHANNEL_ACCESS_FAILURE, NO_ACK, ZigbeeMac
from repro.phy.medium import Technology
from repro.traffic import WifiPacketSource

from .helpers import deterministic_context, wifi_pair, zigbee_pair


def wire(node):
    """Attach result recorders to a node's MAC."""
    results = {"ok": [], "fail": []}
    node.mac.on_send_success = lambda f: results["ok"].append(f.seq)
    node.mac.on_send_failure = lambda f, r: results["fail"].append((f.seq, r))
    return results


def send_data(ctx, node, dest="ZR", payload=50, seq=1):
    frame = zigbee_data_frame(node.name, dest, payload, created_at=ctx.sim.now)
    frame.seq = seq
    node.mac.send(frame)
    return frame


def test_clear_channel_delivery_with_ack():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    delivered = []
    receiver.mac.on_data_received = lambda f, i: delivered.append(f.seq)
    results = wire(sender)
    send_data(ctx, sender)
    ctx.sim.run(until=0.1)
    assert results["ok"] == [1]
    assert delivered == [1]


def test_burst_of_packets_all_delivered_on_clear_channel():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    delivered = []
    receiver.mac.on_data_received = lambda f, i: delivered.append(f.seq)
    results = wire(sender)
    for seq in range(1, 11):
        send_data(ctx, sender, seq=seq)
    ctx.sim.run(until=0.5)
    assert results["ok"] == list(range(1, 11))
    assert delivered == list(range(1, 11))
    assert results["fail"] == []


def test_duplicate_delivery_suppressed_at_receiver():
    """If the ACK is lost the sender retransmits, but the app sees one copy."""
    ctx = deterministic_context(seed=3)
    sender, receiver = zigbee_pair(ctx)
    delivered = []
    receiver.mac.on_data_received = lambda f, i: delivered.append(f.seq)
    # Jam only ACK-sized frames by disabling the sender's radio reception is
    # complex; instead deliver the same seq twice at MAC level directly:
    frame = zigbee_data_frame("ZS", "ZR", 50)
    frame.seq = 7
    from repro.devices.base import RxInfo

    info = RxInfo(rx_power_dbm=-50.0, success_probability=1.0, min_sinr_db=30.0)
    receiver.mac.on_frame_received(frame, info)
    receiver.mac.on_frame_received(frame, info)
    ctx.sim.run(until=0.05)
    assert delivered == [7]


def test_channel_access_failure_under_continuous_energy():
    """A persistently busy channel produces CHANNEL_ACCESS_FAILURE."""
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    results = wire(sender)
    # Saturate the band with continuous ZigBee-band energy from an emitter.
    from repro.devices.interferers import Emitter
    from repro.phy.propagation import Position
    from repro.phy.spectrum import zigbee_channel

    emitter = Emitter(ctx, "jam", Position(2.5, 1.2))

    def jam():
        emitter.emit(1.0, 10.0, zigbee_channel(24), Technology.ZIGBEE)

    ctx.sim.schedule(0.0, jam)
    ctx.sim.schedule(0.001, send_data, ctx, sender)
    ctx.sim.run(until=0.5)
    assert results["fail"] == [(1, CHANNEL_ACCESS_FAILURE)]
    assert sender.mac.channel_access_failures == 1


def test_no_ack_failure_when_receiver_is_deaf():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    receiver.radio.enabled = False
    results = wire(sender)
    send_data(ctx, sender)
    ctx.sim.run(until=0.5)
    assert results["fail"] == [(1, NO_ACK)]
    assert sender.mac.data_sent_attempts == 4  # 1 + MAX_FRAME_RETRIES


def test_zigbee_defers_to_wifi_cca():
    """ZigBee CCA sees Wi-Fi energy: attempts concentrate in Wi-Fi gaps."""
    ctx = deterministic_context()
    wifi_sender, wifi_receiver = wifi_pair(ctx)
    # Continuous back-to-back Wi-Fi: 1500 B frames, no gap.
    WifiPacketSource(ctx, wifi_sender.mac, "F", payload_bytes=1500, interval=1e-4,
                     queue_limit=1000)
    sender, receiver = zigbee_pair(ctx)
    results = wire(sender)
    for seq in range(1, 21):
        ctx.sim.schedule(0.01 * seq, send_data, ctx, sender, "ZR", 50, seq)
    ctx.sim.run(until=0.5)
    # The channel is busy ~75% of the time, so across 20 packets CCA must
    # report busy at least once (P[all clear] ~ 0.25^20).
    assert sender.mac.cca_busy_count > 0
    assert sender.mac.cca_clear_count > 0  # the gaps are also found


def test_forced_transmission_ignores_busy_channel():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx)
    from repro.devices.interferers import Emitter
    from repro.phy.propagation import Position
    from repro.phy.spectrum import zigbee_channel

    emitter = Emitter(ctx, "jam", Position(2.5, 1.2))
    ctx.sim.schedule(0.0, lambda: emitter.emit(1.0, 10.0, zigbee_channel(24),
                                               Technology.ZIGBEE))
    control = zigbee_control_frame("ZS", 120)
    done = []
    control.meta["on_complete"] = lambda f: done.append(ctx.sim.now)
    ctx.sim.schedule(0.001, sender.mac.send_forced, control)
    ctx.sim.run(until=0.1)
    assert len(done) == 1
    assert done[0] == pytest.approx(0.001 + control.duration(), abs=1e-6)


def test_forced_control_packet_power_override():
    ctx = deterministic_context()
    sender, receiver = zigbee_pair(ctx, tx_power_dbm=0.0)
    control = zigbee_control_frame("ZS", 120)
    sender.mac.send_forced(control, power_dbm=-3.0)
    ctx.sim.run(until=0.05)
    assert control.meta["tx_power_dbm"] == -3.0


def test_control_frame_duration_covers_two_wifi_packets():
    """120 B control packets last ~4.4 ms >> the 1 ms Wi-Fi packet interval."""
    control = zigbee_control_frame("ZS", 120)
    assert control.duration() > 2 * 1e-3


def test_zigbee_mac_requires_zigbee_radio():
    ctx = deterministic_context()
    from repro.devices import WifiDevice
    from repro.phy.propagation import Position

    w = WifiDevice(ctx, "W", Position(0, 0))
    with pytest.raises(ValueError):
        ZigbeeMac(w.radio, ctx.sim)


def test_ack_failure_under_wifi_interference_matches_paper_setup():
    """Paper Sec. VIII-A: ZigBee at -7 dBm loses >95% under 1 ms Wi-Fi traffic."""
    ctx = deterministic_context(seed=11)
    wifi_sender, wifi_receiver = wifi_pair(ctx)
    WifiPacketSource(ctx, wifi_sender.mac, "F", payload_bytes=100, interval=1e-3)
    sender, receiver = zigbee_pair(ctx, tx_power_dbm=-7.0)
    results = wire(sender)
    for seq in range(1, 31):
        ctx.sim.schedule(0.01 * seq, send_data, ctx, sender, "ZR", 50, seq)
    ctx.sim.run(until=1.0)
    failures = len(results["fail"])
    assert failures / 30 > 0.8
