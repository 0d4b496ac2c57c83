"""Tests for the radio receive path: locking, SINR segmentation, collisions."""

import pytest

from repro.context import build_context
from repro.devices.base import Radio
from repro.mac.frames import zigbee_data_frame
from repro.phy.medium import Technology
from repro.phy.spectrum import wifi_channel, zigbee_channel
from repro.phy.propagation import FadingModel, Position
from repro.sim.rng import RandomStreams

from .helpers import deterministic_context


class RecordingMac:
    """Minimal MAC stub that records PHY callbacks."""

    def __init__(self):
        self.received = []
        self.lost = []
        self.medium_events = 0

    def on_frame_received(self, frame, info):
        self.received.append((frame, info))

    def on_frame_lost(self, frame, info):
        self.lost.append((frame, info))

    def on_medium_event(self):
        self.medium_events += 1

    def on_transmit_complete(self, frame):
        pass


def zigbee_radio(ctx, name, pos, **kwargs):
    radio = Radio(
        name=name,
        position=pos,
        band=zigbee_channel(24),
        technology=Technology.ZIGBEE,
        sim=ctx.sim,
        streams=ctx.streams,
        sensitivity_dbm=-95.0,
        noise_figure_db=5.0,
        **kwargs,
    )
    ctx.medium.attach(radio)
    mac = RecordingMac()
    radio.mac = mac
    return radio, mac


def send(ctx, radio, payload=50, power=0.0, seq=0):
    frame = zigbee_data_frame(radio.name, "ZR", payload)
    frame.seq = seq
    return radio.transmit_frame(frame, power)


def test_clean_frame_is_received():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    send(ctx, tx)
    ctx.sim.run()
    assert len(mac.received) == 1
    frame, info = mac.received[0]
    assert info.rx_power_dbm == pytest.approx(-54.3, abs=0.1)
    assert info.success_probability == pytest.approx(1.0, abs=1e-6)
    assert rx.frames_received == 1


def test_below_sensitivity_frame_is_ignored():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(80, 0))  # ~ -97 dBm < -95
    send(ctx, tx)
    ctx.sim.run()
    assert mac.received == [] and mac.lost == []
    assert rx.frames_received == 0


def test_strong_cochannel_collision_destroys_frame():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    jammer, _ = zigbee_radio(ctx, "J", Position(3.2, 0.5))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    send(ctx, tx)
    # Jammer starts shortly after, overlapping most of the frame at high power.
    ctx.sim.schedule(0.2e-3, send, ctx, jammer, 50, 0.0, 1)
    ctx.sim.run()
    assert len(mac.lost) == 1
    frame, info = mac.lost[0]
    assert frame.source == "ZS"  # receiver stayed locked on the first frame
    assert info.success_probability < 0.01
    assert info.min_sinr_db < 3.0


def test_receiver_does_not_relock_midframe():
    """Once locked, a second frame is interference, not a new reception."""
    ctx = deterministic_context()
    tx1, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    tx2, _ = zigbee_radio(ctx, "Z2", Position(0.5, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    send(ctx, tx1, seq=1)
    ctx.sim.schedule(0.1e-3, send, ctx, tx2, 50, 0.0, 2)
    ctx.sim.run()
    outcomes = mac.received + mac.lost
    assert len(outcomes) == 1
    assert outcomes[0][0].seq == 1


def test_weak_interferer_far_away_does_not_kill_frame():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    far_jammer, _ = zigbee_radio(ctx, "J", Position(60, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(2, 0))
    send(ctx, tx)
    ctx.sim.schedule(0.1e-3, send, ctx, far_jammer, 50, 0.0, 1)
    ctx.sim.run()
    assert len(mac.received) == 1


def test_wifi_overlap_recorded_in_rxinfo():
    """Cross-technology overlaps surface in RxInfo (feeds the CSI model)."""
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(1.5, 0))
    wifi = Radio(
        name="W",
        position=Position(12, 0),
        band=wifi_channel(11),
        technology=Technology.WIFI,
        sim=ctx.sim,
        streams=ctx.streams,
    )
    ctx.medium.attach(wifi)
    seen = []

    def read_overlaps(frame, info):
        # The overlaps are worked out on first read, inside the callback.
        seen.append(info.overlaps)

    mac.on_frame_received = mac.on_frame_lost = read_overlaps
    send(ctx, tx)
    ctx.sim.schedule(0.3e-3, lambda: ctx.medium.transmit(
        wifi, 0.5e-3, 20.0, wifi.band, Technology.WIFI))
    ctx.sim.run()
    assert len(seen) == 1
    overlaps = seen[0]
    techs = [tech for tech, *_ in overlaps]
    assert Technology.WIFI in techs
    _, name, rx_dbm, seconds = next(o for o in overlaps if o[0] is Technology.WIFI)
    assert name == "W"
    assert seconds == pytest.approx(0.5e-3, abs=1e-6)


def test_half_duplex_transmit_aborts_reception():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    send(ctx, tx, seq=1)
    ctx.sim.schedule(0.2e-3, send, ctx, rx, 50, 0.0, 2)
    ctx.sim.run()
    assert mac.received == []  # reception aborted by own transmission
    assert rx.frames_lost == 1
    assert rx.frames_sent == 1


def test_radio_cannot_double_transmit():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    zigbee_radio(ctx, "ZR", Position(3, 0))
    send(ctx, tx)
    with pytest.raises(RuntimeError):
        send(ctx, tx, seq=2)


def test_disabled_radio_does_not_lock():
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    rx.enabled = False
    send(ctx, tx)
    ctx.sim.run()
    assert mac.received == [] and mac.lost == []


def test_interference_segments_partial_overlap():
    """A jammer overlapping only the tail yields p between 0 and 1 outcomes.

    With a borderline-power jammer only over the last 20% of the frame the
    success probability must be strictly between the clean and fully-jammed
    cases.
    """
    ctx = deterministic_context()
    tx, _ = zigbee_radio(ctx, "ZS", Position(0, 0))
    jammer, _ = zigbee_radio(ctx, "J", Position(9.0, 0.5))
    rx, mac = zigbee_radio(ctx, "ZR", Position(3, 0))
    frame_duration = zigbee_data_frame("ZS", "ZR", 50).duration()
    send(ctx, tx)
    ctx.sim.schedule(frame_duration * 0.8, send, ctx, jammer, 50, 0.0, 1)
    ctx.sim.run()
    outcomes = mac.received + mac.lost
    info = outcomes[0][1]
    assert 0.0 < info.success_probability <= 1.0
    # SINR of ZS at ZR vs jammer at ~6m: positive but finite SINR.
    assert info.min_sinr_db < 30.0


def test_block_outcome_draws_match_scalar_stream_draws():
    """Reception outcomes are drawn 16 at a time; each delivered/lost
    verdict still equals the next scalar draw of ``phy/rx/<name>``
    against the frame's success probability."""
    seed = 11
    # Fading at the edge of decodability: success probabilities spread
    # over (0, 1), so both outcomes occur.
    ctx = build_context(seed=seed, fading=FadingModel(0.0, 2.5), trace_kinds=set())
    outcomes = []

    class OutcomeMac(RecordingMac):
        def on_frame_received(self, frame, info):
            outcomes.append((True, info.success_probability))

        def on_frame_lost(self, frame, info):
            outcomes.append((False, info.success_probability))

    radios = []
    for name, x in (("ZS", 0.0), ("ZR", 172.0)):
        radio = Radio(
            name=name, position=Position(x, 0), band=zigbee_channel(24),
            technology=Technology.ZIGBEE, sim=ctx.sim, streams=ctx.streams,
            sensitivity_dbm=-130.0, noise_figure_db=5.0,
        )
        ctx.medium.attach(radio)
        radio.mac = OutcomeMac()
        radios.append(radio)
    for k in range(48):  # refills at receptions 0, 16 and 32
        ctx.sim.schedule(5e-3 * k, lambda k=k: send(ctx, radios[0], seq=k))
    ctx.sim.run()
    assert len(outcomes) == 48
    assert {delivered for delivered, _ in outcomes} == {True, False}
    draws = RandomStreams(seed=seed).stream("phy/rx/ZR")
    assert [delivered for delivered, _ in outcomes] == [
        draws.random() < p for _, p in outcomes
    ]
