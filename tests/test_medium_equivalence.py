"""Vectorized medium kernel vs the legacy per-pair oracle.

The struct-of-arrays kernel (``repro.phy.medium_fast``) must be **bitwise
identical** to the legacy :class:`~repro.phy.medium.Medium` it accelerates:
same trace digests, same event counts, same metrics — across seeds, library
scenarios, and fault plans (modeled on ``tests/test_rssi_equivalence.py``,
which keeps the per-sample RSSI path as oracle the same way).

Three layers of evidence:

* full compiled scenarios (5 seeds x 7 scenarios x 2 fault plans: the
  office under every scheme, two generated layouts) compared on trace
  digest + event count + the whole summary dict;
* targeted adversarial cases for the kernel's caches — mid-run mobility
  (position-epoch invalidation) and BLE retunes while foreign transmissions
  are in flight (gather-profile + slot refresh) — and the rule both kernels
  enforce that no radio attaches after the first transmission;
* reception records — every ``RxInfo`` a MAC receives and every radio's
  reception-outcome stream, on a compiled grid dense enough that dozens of
  radios stay locked across Wi-Fi edges, and with MACs that transmit from
  inside a notification (nested edges) or while their radio is locked;
* a hypothesis property test driving the same random
  transmit/advance/move/retune interleavings on both kernels and comparing
  every radio's energy queries bitwise after every step;
* a guard, on both kernels, that a Wi-Fi MAC is skipped on an edge
  exactly while it is idle.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dataclasses

import repro.devices.base
from repro.context import VECTOR_MEDIUM_MIN_RADIOS, build_context
from repro.devices.base import Radio, RxInfo
from repro.devices.interferers import Emitter
from repro.experiments.scenario import ScenarioTrialConfig, run_scenario_trial
from repro.mac.ble import BleConnection
from repro.mac.frames import Frame, FrameType, wifi_data_frame
from repro.mac.wifi import SENSE_DELAY_S, WifiMac
from repro.phy.medium import WIFI_ONLY, Technology
from repro.phy.medium_fast import VectorMedium
from repro.phy.modulation import WIFI_RATES
from repro.phy.propagation import FadingModel, Position
from repro.scenarios import compile_scenario, get_scenario
from repro.phy.spectrum import ble_channel, wifi_channel, zigbee_channel
from repro.schemes import scheme_names

SEEDS = [0, 1, 2, 3, 4]
SCENARIOS = [
    ("office", {}),
    ("grid", {"n_zigbee_links": 3, "n_wifi_pairs": 2}),
    ("random-uniform", {"n_zigbee_links": 4, "n_wifi_pairs": 2}),
] + [
    # Every scheme's call pattern through the medium; ``("office", {})``
    # above is the default scheme, bicord.
    ("office", {"scheme": name}) for name in scheme_names() if name != "bicord"
]
FAULT_PLANS = ["inert", "lossy-control"]
KERNELS = ["legacy", "vector"]


def _run_with_kernel(force_kernel, kernel, scenario, params, fault_plan, seed):
    force_kernel(kernel)
    cfg = ScenarioTrialConfig(
        scenario=scenario, params=params, duration=0.3, fault_plan=fault_plan
    )
    return run_scenario_trial(cfg, seed=seed)


@pytest.mark.parametrize("fault_plan", FAULT_PLANS)
@pytest.mark.parametrize("scenario,params", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_bitwise_equivalence(force_kernel, scenario, params, fault_plan, seed):
    legacy = _run_with_kernel(force_kernel, "legacy", scenario, params, fault_plan, seed)
    vector = _run_with_kernel(force_kernel, "vector", scenario, params, fault_plan, seed)
    assert vector.trace_digest == legacy.trace_digest
    assert vector.events_processed == legacy.events_processed
    assert vector.summary() == legacy.summary()
    assert legacy.events_processed > 0  # the comparison actually exercised a run


#: A fast-motion roaming corridor: the client crosses an AP boundary well
#: inside the 0.3 s horizon, so the run exercises trajectory ticks
#: (batched ``move_many`` churn), roaming scans, and a handoff in both
#: kernels.
TRAJECTORY_PARAMS = {
    "speed_mps": 40.0,
    "n_aps": 3,
    "ap_spacing": 6.0,
    "hysteresis_db": 2.0,
    "scan_interval": 0.05,
    "tick": 0.02,
    "wifi_interval": 4e-3,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trajectory_roaming_bitwise_equivalence(force_kernel, seed):
    legacy = _run_with_kernel(
        force_kernel, "legacy", "vehicular-corridor", TRAJECTORY_PARAMS, None, seed
    )
    vector = _run_with_kernel(
        force_kernel, "vector", "vehicular-corridor", TRAJECTORY_PARAMS, None, seed
    )
    assert vector.trace_digest == legacy.trace_digest
    assert vector.events_processed == legacy.events_processed
    assert vector.summary() == legacy.summary()
    assert vector.extra == legacy.extra
    assert legacy.extra["roam_handoffs"] >= 1  # motion actually forced a handoff


# ----------------------------------------------------------------------
# Targeted adversarial cases, run through both kernels and diffed on the
# full trace (every record, every field — floats compare bitwise).
# ----------------------------------------------------------------------
def _dual_run(force_kernel, builder, seed=3, **ctx_kwargs):
    """Run ``builder(ctx)`` under both kernels; return {kernel: observables}."""
    out = {}
    for kernel in KERNELS:
        force_kernel(kernel)
        ctx = build_context(seed=seed, **ctx_kwargs)
        assert isinstance(ctx.medium, VectorMedium) == (kernel == "vector")
        extra = builder(ctx)
        out[kernel] = (
            [(r.time, r.kind, r.fields) for r in ctx.trace.records],
            dict(ctx.trace.counters),
            extra,
        )
    return out


def _attach_radio(ctx, name, pos, band, tech, **kwargs):
    radio = Radio(
        name=name, position=pos, band=band, technology=tech,
        sim=ctx.sim, streams=ctx.streams, trace=ctx.trace, **kwargs,
    )
    ctx.medium.attach(radio)
    return radio


def _zigbee_frame(src, dst, seq):
    return Frame(
        FrameType.DATA, Technology.ZIGBEE, src, dst,
        payload_bytes=40, mpdu_bytes=51, seq=seq,
    )


def test_mid_run_mobility_equivalence(force_kernel):
    """Moving a radio mid-run invalidates the link matrix identically."""

    def scenario(ctx):
        a = _attach_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
        b = _attach_radio(ctx, "b", Position(8, 0), zigbee_channel(24), Technology.ZIGBEE)
        c = _attach_radio(ctx, "c", Position(4, 3), zigbee_channel(24), Technology.ZIGBEE)
        powers = []
        seq = [0]

        def send():
            seq[0] += 1
            a.transmit_frame(_zigbee_frame("a", "b", seq[0]), 0.0)

        for k in range(8):
            ctx.sim.schedule(5e-3 * k, send)
        # Walk the receiver away mid-run, then the transmitter itself.
        ctx.sim.schedule(12e-3, lambda: b.move_to(Position(20, 0)))
        ctx.sim.schedule(22e-3, lambda: a.move_to(Position(2, 2)))
        ctx.sim.schedule(27e-3, lambda: c.move_to(Position(2.5, 2)))
        # Sample energy between and during frames.
        for t in (3e-3, 11e-3, 16e-3, 26e-3, 31e-3, 36e-3):
            ctx.sim.schedule(t, lambda: powers.append((b.energy_dbm(), c.energy_dbm())))
        ctx.sim.run(until=45e-3)
        return powers

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]


def test_ble_retune_during_foreign_transmission(force_kernel):
    """BLE hops while a wide Wi-Fi emission is in flight; captured powers and
    AFH statistics must match the legacy per-pair recomputation exactly."""

    def scenario(ctx):
        ble = BleConnection(
            ctx, "link", Position(0, 0), Position(2, 0),
            connection_interval=10e-3, afh_check_interval=50e-3,
        )
        ble.start()
        jammer = Emitter(ctx, "jam", Position(1, 1))
        # Long emissions spanning several connection events (and hence
        # several mid-flight retunes of both BLE endpoints).
        for k in range(6):
            ctx.sim.schedule(
                4e-3 + 35e-3 * k,
                lambda: jammer.emit(25e-3, 18.0, wifi_channel(1), Technology.WIFI),
            )
        ctx.sim.run(until=0.25)
        return (ble.events, ble.event_successes, ble.event_failures,
                ble.exclusions, ble.excluded_channels())

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]


def test_attach_after_first_transmission_raises(force_kernel):
    """A run's radio set is fixed at its first frame: every frame's powers
    cover every radio, so neither kernel accepts a radio once a source has
    transmitted, on the air or not."""
    band = zigbee_channel(24)
    for kernel in KERNELS:
        force_kernel(kernel)
        ctx = build_context(seed=3, fading=FadingModel(2.0, 2.5))
        assert isinstance(ctx.medium, VectorMedium) == (kernel == "vector")
        a = _attach_radio(ctx, "a", Position(0, 0), band, Technology.ZIGBEE)
        _attach_radio(ctx, "b", Position(6, 0), band, Technology.ZIGBEE)
        a.transmit_frame(_zigbee_frame("a", "b", 1), 0.0)
        with pytest.raises(RuntimeError):
            _attach_radio(ctx, "late", Position(3, 1), band, Technology.ZIGBEE)
        ctx.sim.run(until=10e-3)
        with pytest.raises(RuntimeError):
            _attach_radio(ctx, "later", Position(3, 1), band, Technology.ZIGBEE)
        assert [radio.name for radio in ctx.medium.radios] == ["a", "b"]


# ----------------------------------------------------------------------
# Reception records: what each MAC is told, and each outcome stream
# ----------------------------------------------------------------------
def _info_fields(info):
    return (info.rx_power_dbm, info.success_probability, info.min_sinr_db, info.overlaps)


def _dense_receptions(force_kernel, monkeypatch, kernel, spec, seed):
    """Run ``spec`` on ``kernel``: every RxInfo built, each rx stream, peak locks."""
    force_kernel(kernel)
    infos = []

    class RecordingRxInfo(RxInfo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            infos.append(_info_fields(self))

    monkeypatch.setattr(repro.devices.base, "RxInfo", RecordingRxInfo)
    locked = [0, 0]  # now, peak
    set_lock = Radio._set_lock

    def counting_set_lock(radio, lock):
        locked[0] += (lock is not None) - (radio._lock is not None)
        locked[1] = max(locked[1], locked[0])
        return set_lock(radio, lock)

    monkeypatch.setattr(Radio, "_set_lock", counting_set_lock)
    compiled = compile_scenario(spec, seed)
    assert isinstance(compiled.ctx.medium, VectorMedium) == (kernel == "vector")
    result = compiled.run()
    streams = [
        (radio.name, radio._rx_rng.bit_generator.state, radio._rx_head)
        for radio in compiled.ctx.medium.radios
    ]
    return result.trace_digest, infos, streams, locked[1]


@pytest.mark.parametrize("seed", [2, 7])
def test_dense_grid_reception_records_match(force_kernel, monkeypatch, seed):
    """At the density the vector kernel is built for, each radio's reception
    record (segments, overlap log, success draw) matches the oracle's."""
    spec = dataclasses.replace(
        get_scenario("grid", n_zigbee_links=18, n_wifi_pairs=4, duration=0.3), grace=0.0
    )
    assert 2 * (18 + 4) >= VECTOR_MEDIUM_MIN_RADIOS
    legacy = _dense_receptions(force_kernel, monkeypatch, "legacy", spec, seed)
    vector = _dense_receptions(force_kernel, monkeypatch, "vector", spec, seed)
    assert vector[0] == legacy[0]
    assert vector[1] == legacy[1]
    assert vector[2] == legacy[2]
    infos = legacy[1]
    assert len(infos) > 1000
    # Dozens of locks at once, and many receptions that overlapped Wi-Fi.
    assert legacy[3] >= 24
    assert sum(1 for info in infos if info[3]) > len(infos) // 2


class _ScriptedMac:
    """A MAC that logs each RxInfo and can transmit from inside a callback.

    ``reply`` is sent from the next ``on_frame_received``; ``on_event`` from
    the next ``on_medium_event``; either nests an edge inside the medium's
    notification loop.
    """

    def __init__(self, radio, log, sensitive=False):
        self.radio = radio
        self.log = log
        self.medium_event_sensitive = sensitive
        self.reply = None
        self.on_event = None
        radio.mac = self

    def _send(self, frame):
        if not self.radio.is_transmitting:
            self.radio.transmit_frame(frame, 15.0)

    def on_frame_received(self, frame, info):
        self.log.append((self.radio.name, "ok", frame.source, frame.seq) + _info_fields(info))
        if self.reply is not None:
            frame, self.reply = self.reply, None
            self._send(frame)

    def on_frame_lost(self, frame, info):
        self.log.append((self.radio.name, "lost", frame.source, frame.seq) + _info_fields(info))

    def on_medium_event(self):
        if self.on_event is not None:
            frame, self.on_event = self.on_event, None
            self._send(frame)

    def on_transmit_complete(self, frame):
        pass


def _nested_world(ctx):
    """ZigBee receivers around one sender, Wi-Fi radios between them, a jammer."""
    log = []
    radios = {}
    layout = [("z0", 1.0), ("z1", 1.5), ("w1", 2.0), ("z2", 2.5), ("w2", 3.0),
              ("z3", 3.5), ("z4", 4.0), ("w0", 4.5), ("z5", 5.0)]
    radios["a"] = _attach_radio(
        ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    for name, x in layout:
        if name.startswith("z"):
            radio = _attach_radio(
                ctx, name, Position(x, 0.5), zigbee_channel(24), Technology.ZIGBEE)
        else:
            radio = _attach_radio(
                ctx, name, Position(x, -0.5), wifi_channel(13), Technology.WIFI)
        radios[name] = radio
        _ScriptedMac(radio, log, sensitive=name.startswith("w"))
    jammer = Emitter(ctx, "jam", Position(2.0, 1.0))
    return log, radios, jammer


def _wifi_frame(src, dst, seq, payload=1500, mbps=6.0):
    frame = wifi_data_frame(src, dst, payload, WIFI_RATES[mbps])
    frame.seq = seq
    return frame


def test_edges_nested_in_notification_loops(force_kernel):
    """MACs that transmit synchronously, from ``on_frame_received`` (a start
    nested in an end loop) and from ``on_medium_event`` (a start nested in a
    start loop), while ZigBee receivers on both sides of them stay locked."""

    def scenario(ctx):
        log, radios, jammer = _nested_world(ctx)
        a = radios["a"]

        def long_zigbee(seq):
            frame = _zigbee_frame("a", "z3", seq)
            frame.mpdu_bytes = 127
            a.transmit_frame(frame, 0.0)

        def wifi_then_reply():
            # w1 answers w0's frame from inside w0's end notifications.
            radios["w1"].mac.reply = _wifi_frame("w1", "w0", 2, payload=400)
            radios["w0"].transmit_frame(_wifi_frame("w0", "w1", 1, payload=300), 15.0)

        def jam_then_react():
            # w2 transmits from inside the jammer's start notifications, so
            # radios after it open the two overlaps in the other order.
            radios["w2"].mac.on_event = _wifi_frame("w2", "w1", 3, payload=600, mbps=1.0)
            jammer.emit(6e-3, 10.0, wifi_channel(13), Technology.WIFI)

        def zigbee_reply():
            # z3 answers a's frame from inside its end notifications.
            radios["z3"].mac.reply = _zigbee_frame("z3", "a", 9)

        for k, t in enumerate((0.0, 6e-3, 12e-3, 20e-3)):
            ctx.sim.schedule(t, long_zigbee, k)
        ctx.sim.schedule(0.3e-3, wifi_then_reply)
        ctx.sim.schedule(6.4e-3, jam_then_react)
        ctx.sim.schedule(12.5e-3, jam_then_react)
        ctx.sim.schedule(19.0e-3, zigbee_reply)
        ctx.sim.run(until=30e-3)
        return log

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]
    log = out["legacy"][2]
    # The still-open jammer/w2 overlaps are listed in start order, also by
    # the radios after w2, which saw w2's frame start before the jammer's.
    orders = {tuple(o[1] for o in entry[7]) for entry in log if len(entry[7]) >= 2}
    assert ("jam", "w2") in orders and ("w2", "jam") not in orders
    # Radios after z3 were still locked on a's frame when z3's reply began.
    heard = {entry[0] for entry in log if entry[2:4] == ("z3", 9)}
    assert {"z0", "z2"} <= heard and not heard & {"z4", "z5"}


@pytest.mark.parametrize("lock_first", [True, False])
def test_frame_ending_at_the_instant_of_a_lock(force_kernel, lock_first):
    """A Wi-Fi frame ends at the very instant a ZigBee radio locks on: it
    overlapped the lock (for 0.0 s) only if its end event ran after the
    lock, whatever the equal times say."""
    duration = 2.5e-3

    def scenario(ctx):
        log = []
        a = _attach_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
        z = _attach_radio(ctx, "z", Position(1.5, 0), zigbee_channel(24), Technology.ZIGBEE)
        w = _attach_radio(ctx, "w", Position(3, 0), wifi_channel(13), Technology.WIFI)
        _ScriptedMac(z, log)

        def wifi():
            ctx.medium.transmit(w, duration, 15.0, w.band, Technology.WIFI)

        if lock_first:
            # The lock's start event is queued before the Wi-Fi end event.
            ctx.sim.schedule(duration, lambda: a.transmit_frame(_zigbee_frame("a", "z", 1), 0.0))
            ctx.sim.schedule(0.0, wifi)
        else:
            wifi()
            ctx.sim.schedule(duration, lambda: a.transmit_frame(_zigbee_frame("a", "z", 1), 0.0))
        ctx.sim.run(until=20e-3)
        return log

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]
    (entry,) = out["legacy"][2]
    overlaps = entry[7]
    if lock_first:
        assert [(tech, name, seconds) for tech, name, _, seconds in overlaps] == [
            (Technology.WIFI, "w", 0.0)
        ]
    else:
        assert overlaps == []


def test_overlaps_are_read_inside_the_callback(force_kernel):
    """``RxInfo.overlaps`` is worked out from the medium's record of ended
    frames, which it forgets once the air is quiet: a first read after the
    MAC callback, or after the callback started a transmission, raises
    rather than answer from a record that moved on."""

    class KeepingMac(_ScriptedMac):
        def on_frame_received(self, frame, info):
            kept.append(info)
            if self.reply is not None:
                frame, self.reply = self.reply, None
                self._send(frame)
                with pytest.raises(RuntimeError):
                    info.overlaps

        on_frame_lost = on_frame_received

    for kernel in KERNELS:
        force_kernel(kernel)
        ctx = build_context(seed=3, fading=FadingModel(2.0, 2.5))
        kept = []
        log, radios, jammer = _nested_world(ctx)
        for name in ("z0", "z2", "w1"):
            KeepingMac(radios[name], log)
        radios["z0"].mac.reply = _zigbee_frame("z0", "a", 2)
        a = radios["a"]
        ctx.sim.schedule(0.0, lambda: a.transmit_frame(_zigbee_frame("a", "z0", 1), 0.0))
        ctx.sim.schedule(0.2e-3, lambda: jammer.emit(1e-3, 10.0, wifi_channel(13), Technology.WIFI))
        ctx.sim.run(until=20e-3)
        assert len(kept) >= 2 and radios["z0"].frames_sent == 1
        for info in kept:
            with pytest.raises(RuntimeError):
                info.overlaps
        medium = ctx.medium
        assert not medium._active
        assert not medium._ended and not medium._frame_rx
        if kernel == "vector":
            assert not medium._slots


def test_locked_radio_transmits_half_duplex_abort(force_kernel):
    """A radio that transmits while locked drops the frame; its next lock
    starts with a clean record in both kernels."""

    def scenario(ctx):
        log, radios, jammer = _nested_world(ctx)
        a = radios["a"]
        for k in range(4):
            ctx.sim.schedule(5e-3 * k, lambda k=k: a.transmit_frame(_zigbee_frame("a", "z1", k), 0.0))
        ctx.sim.schedule(0.2e-3, lambda: jammer.emit(3e-3, 10.0, wifi_channel(13), Technology.WIFI))
        ctx.sim.schedule(5.2e-3, lambda: jammer.emit(0.6e-3, 10.0, wifi_channel(13), Technology.WIFI))
        # z2 and z4 transmit mid-frame, while locked on a's frames.
        ctx.sim.schedule(0.9e-3, lambda: radios["z2"].transmit_frame(_zigbee_frame("z2", "a", 50), 0.0))
        ctx.sim.schedule(10.7e-3, lambda: radios["z4"].transmit_frame(_zigbee_frame("z4", "a", 51), 0.0))
        ctx.sim.run(until=25e-3)
        return log, [(r.name, r.frames_received, r.frames_lost) for r in radios.values()]

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]
    log, counts = out["legacy"][2]
    assert any(entry[0] == "z2" and entry[2] == "a" for entry in log)
    assert any(name == "z2" and lost >= 1 for name, _, lost in counts)


# ----------------------------------------------------------------------
# Energy queries, step by step, on both kernels
# ----------------------------------------------------------------------
_BANDS = [
    ("zigbee", zigbee_channel(24), Technology.ZIGBEE),
    ("zigbee", zigbee_channel(26), Technology.ZIGBEE),
    ("wifi", wifi_channel(11), Technology.WIFI),
    ("wifi", wifi_channel(1), Technology.WIFI),
    ("ble", ble_channel(30), Technology.BLE),
]

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("tx"),
            st.integers(min_value=0, max_value=4),
            st.sampled_from([0.0, 10.0, 18.0]),
            st.sampled_from([0.8e-3, 2.5e-3, 7e-3]),
        ),
        st.tuples(st.just("advance"), st.sampled_from([0.4e-3, 1.1e-3, 6e-3]),
                  st.none(), st.none()),
        st.tuples(st.just("move"), st.integers(min_value=0, max_value=4),
                  st.sampled_from([0.5, 2.0, -1.5]), st.none()),
        st.tuples(st.just("move_many"), st.integers(min_value=0, max_value=4),
                  st.sampled_from([0.5, 2.0, -1.5]), st.none()),
        st.tuples(st.just("retune"), st.integers(min_value=0, max_value=4),
                  st.integers(min_value=0, max_value=len(_BANDS) - 1), st.none()),
    ),
    min_size=3,
    max_size=18,
)


def _energy_readings(ctx, radios):
    """Every energy query of every radio, as exact float bit patterns."""
    medium = ctx.medium
    now = ctx.sim.now
    first = tuple(list(medium._active)[:1])
    readings = []
    for radio in radios:
        values = [
            medium.interference_mw(radio),
            medium.interference_mw(radio, technologies=WIFI_ONLY),
            medium.interference_mw(radio, exclude=first),
            *medium.cca_power_mw(radio, now),
            *medium.cca_power_mw(radio, now, SENSE_DELAY_S),
            medium.decoding_interference_mw(radio),
            medium.decoding_interference_mw(radio, exclude=first),
        ]
        readings.append([float(v).hex() for v in values])
    return readings


# ``force_kernel`` only picks the kernel of the contexts built next, so
# sharing the function-scoped fixture across examples is safe.
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=9))
def test_kernels_answer_energy_queries_bitwise_alike(force_kernel, ops, seed):
    """The same random interleaving on both kernels: after every step each
    radio's ``interference_mw`` (unfiltered, Wi-Fi only, one frame
    excluded), ``cca_power_mw`` and ``decoding_interference_mw`` agree bit
    for bit, and a drained medium reads zero everywhere."""
    worlds = []
    for kernel in KERNELS:
        force_kernel(kernel)
        ctx = build_context(seed=seed, fading=FadingModel(2.0, 2.5), trace_kinds=set())
        assert isinstance(ctx.medium, VectorMedium) == (kernel == "vector")
        radios = [
            _attach_radio(ctx, f"r{i}", Position(1.5 * i, 0.7 * (i % 3)), band, tech)
            for i, (_, band, tech) in enumerate(_BANDS)
        ]
        worlds.append((ctx, radios, {}))
    for op, a, b, c in ops:
        for ctx, radios, busy_until in worlds:
            if op == "tx":
                src = radios[a]
                if busy_until.get(a, -1.0) > ctx.sim.now:
                    continue
                busy_until[a] = ctx.sim.now + c
                ctx.medium.transmit(src, c, b, src.band, src.technology)
            elif op == "advance":
                ctx.sim.run(until=ctx.sim.now + a)
            elif op == "move":
                radios[a].move_to(Position(radios[a].position.x + b,
                                           radios[a].position.y))
            elif op == "move_many":
                # Batched churn: one epoch advance for a platoon of movers.
                ctx.medium.move_many(
                    (radio, Position(radio.position.x + b, radio.position.y + 0.3))
                    for radio in radios[a:a + 3]
                )
            elif op == "retune":
                radios[a].retune(_BANDS[b][1])
        loop, vector = worlds
        assert list(loop[0].medium._active) == list(vector[0].medium._active)
        assert _energy_readings(*loop[:2]) == _energy_readings(*vector[:2])
    for ctx, radios, _ in worlds:
        ctx.sim.run(until=ctx.sim.now + 20e-3)  # drain; end-edge accounting
        for radio in radios:
            assert ctx.medium.interference_mw(radio) == 0.0
    assert _energy_readings(*worlds[0][:2]) == _energy_readings(*worlds[1][:2])


# ----------------------------------------------------------------------
# Idle Wi-Fi MACs off the fan-out
# ----------------------------------------------------------------------
#: The paper's office under every scheme, both roaming scenarios and a
#: 40-radio grid, all shortened.
IDLE_GUARD_SCENARIOS = [
    ("office", {"scheme": name, "n_bursts": 10}) for name in scheme_names()
] + [
    ("campus-roaming", {"duration": 2.0}),
    ("vehicular-corridor", {"duration": 2.0}),
    ("grid", {"n_zigbee_links": 16, "n_wifi_pairs": 4, "duration": 0.2}),
]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("scenario,params", IDLE_GUARD_SCENARIOS)
def test_wifi_mac_is_skipped_only_while_idle(force_kernel, monkeypatch, kernel, scenario, params):
    """Every time a kernel or a radio reads a ``WifiMac``'s flag as false and
    so skips its ``on_medium_event``, ``_evaluate`` would have taken its idle
    return: no countdown, and an ACK pending or an empty queue.  Conversely
    no ``on_medium_event`` reaches a MAC in that state: the flag is cleared
    on every way into idle, also where no medium event leads there (a
    countdown that pops the last frame, the start of an ACK wait)."""
    reads = {False: 0, True: 0}
    busy = []
    idle_events = []

    def idle(mac):
        return mac._countdown_event is None and (
            mac._awaiting_ack_for is not None or not mac.queue
        )

    def get(mac):
        flag = mac.__dict__.get("_flag", True)
        reads[flag] += 1
        if not flag and not idle(mac):
            busy.append((mac.radio.name, mac.sim.now))
        return flag

    def set_(mac, flag):
        mac.__dict__["_flag"] = flag

    on_medium_event = WifiMac.on_medium_event

    def spy(mac):
        if idle(mac):
            idle_events.append((mac.radio.name, mac.sim.now))
        on_medium_event(mac)

    monkeypatch.setattr(WifiMac, "medium_event_sensitive", property(get, set_))
    monkeypatch.setattr(WifiMac, "on_medium_event", spy)
    force_kernel(kernel)
    spec = get_scenario(scenario, **params)
    compiled = compile_scenario(spec, 1)
    assert isinstance(compiled.ctx.medium, VectorMedium) == (kernel == "vector")
    compiled.run()
    assert busy == []
    assert idle_events == []
    # Both outcomes occur: idle MACs are skipped, busy ones still notified.
    assert reads[False] > 0 and reads[True] > 0
