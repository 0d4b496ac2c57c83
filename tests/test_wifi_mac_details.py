"""Finer-grained 802.11 DCF behaviours: freeze accounting, CW doubling,
NAV stacking, the carrier-sense vulnerability window, saturation sanity."""

import pytest

from repro.devices import WifiDevice
from repro.devices.interferers import Emitter
from repro.mac.frames import wifi_data_frame
from repro.mac.wifi import CW_MIN, DIFS_S, SENSE_DELAY_S, SLOT_S
from repro.phy.medium import Technology
from repro.phy.propagation import Position
from repro.traffic import WifiPacketSource

from .helpers import deterministic_context


def enqueue(ctx, mac, dest="R", payload=100, seq=1):
    frame = wifi_data_frame(mac.radio.name, dest, payload, mac.data_rate,
                            created_at=ctx.sim.now)
    frame.seq = seq
    mac.enqueue(frame)
    return frame


def test_backoff_slots_decrease_across_freezes():
    """A frozen countdown resumes with fewer (never more) slots."""
    ctx = deterministic_context(seed=3)
    a = WifiDevice(ctx, "A", Position(0, 0))
    b = WifiDevice(ctx, "B", Position(1, 0))
    WifiDevice(ctx, "R", Position(0.5, 1))
    # A transmits a long frame; B's countdown freezes against it.
    long_frame = wifi_data_frame("A", "R", 1500, a.mac.data_rate)
    a.mac.enqueue(long_frame)
    observed = []

    def watch():
        if b.mac._backoff_slots is not None:
            observed.append(b.mac._backoff_slots)

    enqueue(ctx, b.mac)
    for i in range(200):
        ctx.sim.schedule(i * 50e-6, watch)
    ctx.sim.run(until=0.02)
    decreasing = [s for s in observed]
    assert decreasing, "backoff slots never observed"
    assert all(x >= y for x, y in zip(decreasing, decreasing[1:]))


def test_contention_window_doubles_on_missed_ack():
    ctx = deterministic_context(seed=4)
    a = WifiDevice(ctx, "A", Position(0, 0))
    r = WifiDevice(ctx, "R", Position(1, 0))
    r.radio.enabled = False  # never ACKs
    enqueue(ctx, a.mac)
    windows = []

    def watch():
        windows.append(a.mac._cw)

    for i in range(100):
        ctx.sim.schedule(i * 2e-3, watch)
    ctx.sim.run(until=0.2)
    assert max(windows) > CW_MIN  # doubled at least once
    assert max(windows) <= 1023
    # After the drop the window resets.
    assert a.mac._cw == CW_MIN
    assert a.mac.data_dropped == 1


def test_mac_sending_its_last_frame_is_passed_no_medium_event(monkeypatch):
    """A countdown that pops the last queued frame leaves the DCF idle, so a
    burst on the air during that frame is not passed to the MAC."""
    ctx = deterministic_context(seed=9)
    a = WifiDevice(ctx, "A", Position(0, 0))
    WifiDevice(ctx, "R", Position(1, 0))
    noise = Emitter(ctx, "N", Position(2, 0))
    events = []
    real_event = a.mac.on_medium_event

    def event_spy():
        events.append(ctx.sim.now)
        real_event()

    monkeypatch.setattr(a.mac, "on_medium_event", event_spy)
    sent = []
    real_transmit = a.radio.transmit_frame

    def transmit_spy(frame, power):
        sent.append(ctx.sim.now)
        ctx.sim.schedule(20e-6, noise.emit, 10e-6, 0.0, a.radio.band, Technology.WIFI)
        return real_transmit(frame, power)

    a.radio.transmit_frame = transmit_spy
    edges = []
    ctx.medium.add_energy_observer(lambda: edges.append(ctx.sim.now))
    enqueue(ctx, a.mac, payload=1500)
    ctx.sim.run(until=0.02)
    assert sent and a.mac.data_delivered == 1
    assert sent[0] + 20e-6 in edges  # the burst starts while A is on the air
    assert events == []


def test_countdown_that_sends_with_frames_left_senses_once(monkeypatch):
    """A countdown that sends one of two queued frames senses the carrier
    once, for the send itself: re-planning while the radio sends is a no-op."""
    ctx = deterministic_context(seed=9)
    a = WifiDevice(ctx, "A", Position(0, 0))
    WifiDevice(ctx, "R", Position(1, 0))
    senses = []
    real_busy = a.mac._medium_busy

    def busy_spy(min_age=0.0):
        senses.append(min_age)
        return real_busy(min_age)

    monkeypatch.setattr(a.mac, "_medium_busy", busy_spy)
    completions = []
    real_complete = a.mac._countdown_complete

    def complete_spy():
        senses.clear()
        queued = len(a.mac.queue)
        real_complete()
        completions.append((queued, len(a.mac.queue), list(senses)))

    monkeypatch.setattr(a.mac, "_countdown_complete", complete_spy)
    enqueue(ctx, a.mac, seq=1)
    enqueue(ctx, a.mac, seq=2)
    ctx.sim.run(until=0.02)
    assert a.mac.data_delivered == 2
    assert completions[0] == (2, 1, [SENSE_DELAY_S])
    assert a.mac.medium_event_sensitive is False  # idle once both are sent


def test_nav_takes_maximum_of_overlapping_cts():
    ctx = deterministic_context(seed=5)
    a = WifiDevice(ctx, "A", Position(0, 0))
    b = WifiDevice(ctx, "B", Position(1, 0))
    WifiDevice(ctx, "R", Position(0.5, 1))
    b.mac.reserve_whitespace(0.05)
    ctx.sim.schedule(0.01, lambda: b.mac.reserve_whitespace(0.02))
    ctx.sim.run(until=0.02)
    # The second, shorter CTS must not shorten A's NAV.
    assert a.mac.nav_until >= 0.05


def test_sense_window_only_ignores_young_transmissions():
    """_medium_busy(min_age) ignores just-started transmissions but not
    established ones."""
    ctx = deterministic_context(seed=6)
    a = WifiDevice(ctx, "A", Position(0, 0))
    b = WifiDevice(ctx, "B", Position(1, 0))
    WifiDevice(ctx, "R", Position(0.5, 1))
    checks = {}

    def start_and_check():
        frame = wifi_data_frame("A", "R", 1500, a.mac.data_rate)
        a.radio.transmit_frame(frame, 20.0)  # directly on the air, now
        # At age ~0 the aged check is blind, the plain check is not.
        checks["young"] = b.mac._medium_busy(min_age=SENSE_DELAY_S)
        checks["young_plain"] = b.mac._medium_busy()

    def check_old():
        checks["old"] = b.mac._medium_busy(min_age=SENSE_DELAY_S)

    ctx.sim.schedule(1e-3, start_and_check)
    ctx.sim.schedule(1e-3 + 200e-6, check_old)  # 200 us into the frame
    ctx.sim.run(until=0.01)
    assert checks["young"] is False
    assert checks["young_plain"] is True
    assert checks["old"] is True


def test_saturated_single_link_efficiency():
    """One saturated station's MAC efficiency lands where DCF should: around
    60-70% of the 24 Mbps PHY rate for 1000 B frames."""
    ctx = deterministic_context(seed=7)
    a = WifiDevice(ctx, "A", Position(0, 0))
    WifiDevice(ctx, "R", Position(1, 0))
    WifiPacketSource(ctx, a.mac, "R", payload_bytes=1000, interval=1e-4,
                     queue_limit=10**6)
    ctx.sim.run(until=0.5)
    throughput = 8 * 1000 * a.mac.data_delivered / 0.5
    assert 0.55 * 24e6 < throughput < 0.72 * 24e6


def test_backoff_duration_matches_slot_math():
    """With no contention the frame starts exactly DIFS + k*SLOT after
    enqueue for some k in [0, CW_MIN]."""
    ctx = deterministic_context(seed=8)
    a = WifiDevice(ctx, "A", Position(0, 0))
    WifiDevice(ctx, "R", Position(1, 0))
    starts = []
    original = a.radio.transmit_frame

    def spy(frame, power):
        starts.append(ctx.sim.now)
        return original(frame, power)

    a.radio.transmit_frame = spy
    t0 = 0.01
    ctx.sim.schedule_at(t0, lambda: enqueue(ctx, a.mac))
    ctx.sim.run(until=0.05)
    assert starts
    elapsed = starts[0] - t0 - DIFS_S
    slots = elapsed / SLOT_S
    assert slots == pytest.approx(round(slots), abs=1e-6)
    assert 0 <= round(slots) <= CW_MIN


def _idle_mac_trial(monkeypatch, idle_events):
    """A waits with an empty queue, then sends two frames to a station that
    never ACKs.  With ``idle_events``, noise bursts reach A while its queue is
    empty and while it awaits the first ACK with the second frame queued."""
    ctx = deterministic_context(seed=9)
    a = WifiDevice(ctx, "A", Position(0, 0))
    deaf = WifiDevice(ctx, "D", Position(1, 0))
    deaf.radio.enabled = False
    noise = Emitter(ctx, "N", Position(2, 0))
    sensed = []
    real_cca = ctx.medium.cca_power_mw

    def cca_spy(radio, now, min_age=0.0):
        sensed.append((radio.name, now))
        return real_cca(radio, now, min_age)

    monkeypatch.setattr(ctx.medium, "cca_power_mw", cca_spy)
    events = []
    real_event = a.mac.on_medium_event

    def event_spy():
        events.append(ctx.sim.now)
        real_event()

    monkeypatch.setattr(a.mac, "on_medium_event", event_spy)
    edges = []
    ctx.medium.add_energy_observer(lambda: edges.append(ctx.sim.now))

    def bursts(*offsets):
        for offset in offsets:
            ctx.sim.schedule(offset, noise.emit, 10e-6, 0.0, a.radio.band, Technology.WIFI)

    sent = []
    ack_waits = []

    def on_sent(frame):
        if not sent:
            assert len(a.mac.queue) == 1 and a.mac.busy_with_traffic
            ack_waits.append((ctx.sim.now, a.mac._ack_timer.time))
            if idle_events:
                bursts(5e-6, 30e-6)
        sent.append(ctx.sim.now)

    a.mac.sent_listeners.append(on_sent)
    if idle_events:
        bursts(1e-3, 2e-3, 3e-3)
    ctx.sim.schedule_at(5e-3, lambda: [enqueue(ctx, a.mac, "D", seq=s) for s in (1, 2)])
    ctx.sim.run(until=0.1)
    stream = ctx.streams.stream("mac/wifi/A")
    outcome = (sent, a.mac._cw, a.mac.data_dropped, stream.bit_generator.state)
    return outcome, sensed, events, edges, ack_waits[0]


def test_idle_mac_skips_carrier_sense_without_changing_its_plan(monkeypatch):
    """An idle DCF (no countdown; empty queue or an ACK pending) is passed no
    medium event and asks the medium nothing while medium edges come and
    go, and its later backoff is unchanged."""
    outcome, sensed, events, edges, (tx_end, ack_timeout) = _idle_mac_trial(
        monkeypatch, True
    )
    quiet_outcome = _idle_mac_trial(monkeypatch, False)[0]
    sensed_a = [t for name, t in sensed if name == "A"]
    idle_windows = [(0.0, 5e-3), (tx_end, ack_timeout)]
    for start, end in idle_windows:
        assert any(start < t < end for t in edges)  # the noise bursts
        assert not any(start <= t < end for t in events)
        assert not any(start <= t < end for t in sensed_a)
    assert sensed_a  # A does sense while it contends
    assert outcome == quiet_outcome
    assert len(outcome[0]) == 16 and outcome[2] == 2  # every retry of both frames
