"""System-level invariants, checked against full protocol runs.

These are the properties that must hold regardless of calibration: white
spaces actually silence Wi-Fi, accounting balances, and airtime never
exceeds wall-clock time.
"""

import pytest

from repro.core import BicordCoordinator, BicordNode
from repro.experiments.topology import location_powermap
from repro.mac.frames import FrameType
from repro.phy.medium import Technology
from repro.traffic import WifiPacketSource, ZigbeeBurstSource

from .helpers import office_devices


def run_traced_scenario(seed=1, n_bursts=10):
    office = office_devices(
        seed=seed, location="A",
        trace_kinds={"medium.tx_start", "bicord.grant", "wifi.nav_set"},
    )
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    coordinator = BicordCoordinator(office.wifi_receiver)
    node = BicordNode(office.zigbee_sender, "ZR", powermap=location_powermap("A"))

    whitespaces = []

    def on_sent(frame):
        if frame.frame_type is FrameType.CTS and frame.meta.get("bicord"):
            start = office.ctx.sim.now
            whitespaces.append((start, start + frame.meta["nav_duration"]))

    office.wifi_receiver.mac.sent_listeners.append(on_sent)
    source = ZigbeeBurstSource(
        office.ctx, node.offer_burst, n_packets=5, payload_bytes=50,
        interval_mean=0.2, poisson=False, max_bursts=n_bursts,
    )
    office.ctx.sim.run(until=n_bursts * 0.2 + 0.5)
    return office, coordinator, node, source, whitespaces


def test_whitespaces_silence_wifi():
    """Once a station *sets* its NAV, it starts no transmission before expiry.

    Note the CTS itself can be lost (it may collide with a same-slot data
    frame — a real coordination failure mode), so the invariant is checked
    against the NAV intervals each station actually recorded, not against
    every CTS the coordinator sent.
    """
    office, coordinator, node, source, whitespaces = run_traced_scenario()
    assert whitespaces, "no white spaces were granted"
    nav_intervals = [
        (record.time, record["until"])
        for record in office.ctx.trace.of_kind("wifi.nav_set")
        if record["mac"] == "E"
    ]
    assert nav_intervals, "E never received a CTS"
    violations = []
    for record in office.ctx.trace.of_kind("medium.tx_start"):
        if record["technology"] != Technology.WIFI.value:
            continue
        if record["source"] != "E":
            continue
        for start, end in nav_intervals:
            # Tiny guard: the ACK of the frame the CTS interrupted may still
            # fire after SIFS, exactly as on real hardware.
            if start + 0.5e-3 < record.time < end:
                violations.append((record.time, start, end))
    assert violations == []


def test_zigbee_transmits_mostly_inside_whitespaces():
    """ZigBee *data* airtime concentrates inside the granted white spaces."""
    office, coordinator, node, source, whitespaces = run_traced_scenario()
    inside = outside = 0
    for record in office.ctx.trace.of_kind("medium.tx_start"):
        if record["technology"] != Technology.ZIGBEE.value:
            continue
        if record["source"] != "ZS":
            continue
        if any(start <= record.time <= end for start, end in whitespaces):
            inside += 1
        else:
            outside += 1
    assert inside > outside


def test_packet_accounting_balances():
    office, coordinator, node, source, _ = run_traced_scenario()
    offered = source.bursts_generated * 5
    assert node.packets_delivered + node.outstanding_packets == offered
    assert len(node.packet_delays) == node.packets_delivered


def test_airtime_never_exceeds_duration():
    office, coordinator, node, source, _ = run_traced_scenario()
    duration = office.ctx.sim.now
    for device in (office.wifi_sender, office.wifi_receiver,
                   office.zigbee_sender, office.zigbee_receiver):
        assert 0.0 <= device.radio.tx_airtime <= duration


def test_energy_meter_consistent_with_radio_airtime():
    office, coordinator, node, source, _ = run_traced_scenario()
    meter = office.zigbee_sender.energy
    assert meter.tx_seconds == pytest.approx(office.zigbee_sender.radio.tx_airtime)
    assert meter.total_mj > 0.0


def test_delays_are_positive_and_ordered_with_creation():
    office, coordinator, node, source, _ = run_traced_scenario()
    assert all(d > 0.0 for d in node.packet_delays)


def test_whitespace_lengths_match_allocator_grants():
    office, coordinator, node, source, whitespaces = run_traced_scenario()
    granted = [g.duration for g in coordinator.allocator.grants]
    issued = [end - start for start, end in whitespaces]
    # Every CTS that made it to the air matches a grant decision.
    assert len(issued) <= len(granted)
    for duration in issued:
        assert any(abs(duration - g) < 1e-9 for g in granted)
