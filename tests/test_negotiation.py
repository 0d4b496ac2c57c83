"""Tests for PowerMap auto-negotiation (Sec. VII-A)."""

import pytest

from repro.core import PowerMap, PowerNegotiator
from repro.traffic import WifiPacketSource

from .helpers import office_devices


def negotiate_at(location, seed=1):
    office = office_devices(seed=seed, location=location)
    cal = office.calibration
    WifiPacketSource(
        office.ctx, office.wifi_sender.mac, "F",
        payload_bytes=cal.wifi_payload_bytes, interval=cal.wifi_interval,
    )
    powermap = PowerMap(default_power_dbm=0.0)
    results = []
    negotiator = PowerNegotiator(office.zigbee_sender)
    # Let Wi-Fi traffic settle, then listen.
    office.ctx.sim.schedule(30e-3, negotiator.negotiate, "E", powermap, results.append)
    office.ctx.sim.run(until=0.2)
    assert len(results) == 1
    return results[0], powermap


def test_far_locations_keep_full_power():
    """A and B are far from the Wi-Fi sender: 0 dBm never trips its CCA."""
    for location in ("A", "B"):
        result, powermap = negotiate_at(location)
        assert result.chosen_power_dbm == 0.0
        assert powermap.get("E") == 0.0


def test_near_locations_back_off():
    """C and D sit near the Wi-Fi sender: negotiation must reduce power."""
    for location in ("C", "D"):
        result, _ = negotiate_at(location)
        assert result.chosen_power_dbm < 0.0


def test_power_ordering_matches_proximity():
    """Closer to the Wi-Fi sender => weaker negotiated power (paper fn. 3)."""
    powers = {loc: negotiate_at(loc)[0].chosen_power_dbm for loc in "ABCD"}
    assert powers["A"] >= powers["C"] >= powers["D"]
    assert powers["B"] >= powers["C"]


def test_measured_rx_estimates_the_sender_not_the_receiver():
    """At location A the Wi-Fi *receiver* F is 1 m away and its ACKs are much
    stronger than E's data frames; the busy-percentile estimator must still
    report E's level (within a few dB), or the negotiated power would
    collapse."""
    result, _ = negotiate_at("A")
    # E at 2.75 m: in-band level about -43 dBm; F's ACKs about -30 dBm.
    assert result.rx_wifi_dbm < -38.0


def test_silent_channel_falls_back_to_full_power():
    office = office_devices(seed=2, location="D")  # no Wi-Fi traffic at all
    powermap = PowerMap()
    results = []
    PowerNegotiator(office.zigbee_sender).negotiate("E", powermap, results.append)
    office.ctx.sim.run(until=0.2)
    assert len(results) == 1
    assert results[0].chosen_power_dbm == 0.0
