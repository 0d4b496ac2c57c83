"""Segment-based RSSI capture vs the legacy per-sample reference path.

The segment path (default) must be **bitwise identical** to the per-sample
path it replaced: same sample values, same dtype, same start times, and no
side effects on the rest of the simulation.  These tests run the same busy
scenario under both modes and compare traces element-for-element, across
seeds, capture rates, and an active fault plan.  One more test pins what
the segment path saves: one simulator event per capture instead of one per
sample.

Also here: the vectorized CTI feature extraction against a straight-line
reference implementation (property-based), and the propagation gain cache
under mobility.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import build_context
from repro.core.cti import RssiFeatures, _runs, extract_features
from repro.devices import WifiDevice, ZigbeeDevice
from repro.faults import FaultPlan
from repro.phy.propagation import FadingModel, PathLossModel, Position
from repro.phy.rssi import RssiSampler, RssiTrace
from repro.traffic import WifiPacketSource

from .helpers import deterministic_context


# ----------------------------------------------------------------------
# Fast path == legacy path, bit for bit
# ----------------------------------------------------------------------
def _capture_campaign(mode, seed, rate_hz, faults=None, n_captures=5, duration=4e-3):
    """A busy office + a chained capture campaign; returns traces and a
    fingerprint of the *rest* of the simulation (the capture path must not
    perturb it)."""
    ctx = build_context(
        seed=seed,
        path_loss=PathLossModel(),
        fading=FadingModel(),
        trace_kinds=set(),
        faults=faults,
    )
    sender = WifiDevice(ctx, "W1", Position(2.0, 0.0), data_rate_mbps=1.0)
    WifiDevice(ctx, "W2", Position(5.0, 0.0), data_rate_mbps=1.0)
    WifiPacketSource(ctx, sender.mac, "W2", payload_bytes=100, interval=1.3e-3)
    ZigbeeDevice(ctx, "ZB", Position(1.0, 2.0))
    collector = ZigbeeDevice(ctx, "C", Position(0.0, 0.0))
    sampler = RssiSampler(collector.radio, ctx.sim, ctx.streams, mode=mode)
    traces = []

    def chain(i=0):
        if i < n_captures:
            sampler.capture(
                duration,
                rate_hz,
                lambda trace, i=i: (traces.append(trace), chain(i + 1)),
            )

    chain()
    ctx.sim.run(until=0.1)
    fingerprint = (
        sender.radio.frames_sent,
        sender.radio.frames_received,
        sender.radio.frames_lost,
        sender.mac.data_delivered,
        collector.radio.frames_received,
    )
    return traces, fingerprint


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("rate_hz", [40e3, 10e3])
def test_segment_capture_bitwise_equals_legacy(seed, rate_hz):
    fast, fp_fast = _capture_campaign("segment", seed, rate_hz)
    legacy, fp_legacy = _capture_campaign("per_sample", seed, rate_hz)
    assert len(fast) == len(legacy) == 5
    for a, b in zip(fast, legacy):
        assert a.start_time == b.start_time
        assert a.rate_hz == b.rate_hz
        assert a.samples_dbm.dtype == b.samples_dbm.dtype
        assert np.array_equal(a.samples_dbm, b.samples_dbm)
    # The capture implementation must be invisible to everything else.
    assert fp_fast == fp_legacy


def test_equivalence_holds_under_fault_plan():
    plan = FaultPlan(control_drop_rate=0.3, csi_spurious_rate=0.05)
    fast, _ = _capture_campaign("segment", 7, 40e3, faults=plan)
    legacy, _ = _capture_campaign("per_sample", 7, 40e3, faults=plan)
    for a, b in zip(fast, legacy):
        assert np.array_equal(a.samples_dbm, b.samples_dbm)


def test_equivalence_without_quantization():
    """Raw (float) traces must match exactly too, not just after rounding."""

    def run(mode):
        ctx = deterministic_context(seed=5, fading=FadingModel())
        sender = WifiDevice(ctx, "W1", Position(2.0, 0.0), data_rate_mbps=1.0)
        WifiDevice(ctx, "W2", Position(5.0, 0.0), data_rate_mbps=1.0)
        WifiPacketSource(ctx, sender.mac, "W2", payload_bytes=100, interval=1e-3)
        collector = ZigbeeDevice(ctx, "C", Position(0.0, 0.0))
        sampler = RssiSampler(
            collector.radio, ctx.sim, ctx.streams, quantize=False, mode=mode
        )
        out = []
        sampler.capture(5e-3, 40e3, out.append)
        ctx.sim.run(until=0.02)
        return out[0]

    fast, legacy = run("segment"), run("per_sample")
    assert fast.samples_dbm.dtype == legacy.samples_dbm.dtype == np.float64
    assert np.array_equal(fast.samples_dbm, legacy.samples_dbm)


def _chained_capture_events(mode, wifi, n_captures=25):
    """Simulator events of back-to-back 5 ms @ 40 kHz captures, and the traces."""
    ctx = build_context(
        seed=2,
        path_loss=PathLossModel(),
        fading=FadingModel(),
        trace_kinds=set(),
    )
    if wifi:  # saturated: a frame is queued every 0.1 ms, faster than it airs
        sender = WifiDevice(ctx, "W1", Position(2.0, 0.0), data_rate_mbps=1.0)
        WifiDevice(ctx, "W2", Position(5.0, 0.0), data_rate_mbps=1.0)
        WifiPacketSource(ctx, sender.mac, "W2", payload_bytes=100, interval=1e-4)
    collector = ZigbeeDevice(ctx, "C", Position(0.0, 0.0))
    sampler = RssiSampler(collector.radio, ctx.sim, ctx.streams, mode=mode)
    traces = []

    def chain(i=0):
        if i < n_captures:
            sampler.capture(
                5e-3, 40e3, lambda trace, i=i: (traces.append(trace), chain(i + 1))
            )

    chain()
    ctx.sim.run(until=n_captures * 5e-3)
    return ctx.sim.events_processed, traces


def test_segment_capture_costs_one_event_per_capture():
    """The segment path schedules one completion event per capture, where the
    per-sample path schedules one event per sample; everything else the
    simulation does is the same in both."""
    n_captures, samples = 25, 200
    for wifi in (False, True):
        segment, fast = _chained_capture_events("segment", wifi, n_captures)
        per_sample, legacy = _chained_capture_events("per_sample", wifi, n_captures)
        assert len(fast) == len(legacy) == n_captures
        assert all(len(trace) == samples for trace in fast)
        assert per_sample - segment == n_captures * (samples - 1)
        if not wifi:  # a quiet medium: the captures are the only events
            assert segment == n_captures


def test_default_capture_mode_flag():
    ctx = deterministic_context()
    dev = ZigbeeDevice(ctx, "Z", Position(0, 0))
    assert dev.rssi.mode == "segment"  # production capture
    with pytest.raises(ValueError):
        RssiSampler(dev.radio, ctx.sim, ctx.streams, mode="bogus")


# ----------------------------------------------------------------------
# Vectorized CTI features vs the straight-line reference
# ----------------------------------------------------------------------
def _runs_reference(mask):
    """Original scalar-loop implementation of core.cti._runs."""
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(mask) - start))
    return runs


def _extract_features_reference(trace, noise_floor_dbm, busy_margin_db=8.0):
    """Original implementation of core.cti.extract_features."""
    samples = np.asarray(trace.samples_dbm, dtype=float)
    period = 1.0 / trace.rate_hz
    busy = samples >= noise_floor_dbm + busy_margin_db
    runs = _runs_reference(busy)
    avg_on_air = (sum(r[1] for r in runs) / len(runs)) * period if runs else 0.0
    if len(runs) >= 2:
        gaps = [
            runs[i + 1][0] - (runs[i][0] + runs[i][1]) for i in range(len(runs) - 1)
        ]
        min_interval = min(gaps) * period
    else:
        min_interval = trace.duration
    power_mw = np.asarray([10.0 ** (s / 10.0) for s in samples])
    mean_power = float(power_mw.mean())
    papr = float(power_mw.max() / mean_power) if mean_power > 0 else 1.0
    under_floor = float(np.mean(samples <= noise_floor_dbm + 1.0))
    return RssiFeatures(avg_on_air, min_interval, papr, under_floor)


@given(mask=st.lists(st.booleans(), min_size=0, max_size=200))
@settings(max_examples=200, deadline=None)
def test_runs_matches_reference(mask):
    assert _runs(np.asarray(mask, dtype=bool)) == _runs_reference(mask)


@given(
    samples=st.lists(
        st.integers(min_value=-110, max_value=-20), min_size=1, max_size=300
    ),
    floor=st.integers(min_value=-105, max_value=-80),
)
@settings(max_examples=100, deadline=None)
def test_extract_features_matches_reference(samples, floor):
    trace = RssiTrace(0.0, 40e3, np.asarray(samples))
    got = extract_features(trace, float(floor))
    want = _extract_features_reference(trace, float(floor))
    assert got.avg_on_air_time == want.avg_on_air_time
    assert got.min_packet_interval == want.min_packet_interval
    assert got.peak_to_average_ratio == want.peak_to_average_ratio
    assert got.under_noise_floor == want.under_noise_floor


# ----------------------------------------------------------------------
# Link budgets under mobility
# ----------------------------------------------------------------------
def test_move_advances_position_epoch_and_link_budget_follows_distance():
    ctx = deterministic_context(seed=2)
    a = ZigbeeDevice(ctx, "A", Position(0.0, 0.0))
    b = ZigbeeDevice(ctx, "B", Position(3.0, 0.0))
    channel = ctx.channel

    p1 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    p2 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    assert p2 == p1

    epoch = channel.position_epoch
    b.radio.move_to(Position(6.0, 0.0))
    assert channel.position_epoch == epoch + 1

    p3 = channel.mean_rx_power_dbm(0.0, "A", a.radio.position, "B", b.radio.position)
    # Deterministic context: the new value is exactly the log-distance model.
    assert p3 == pytest.approx(0.0 - channel.path_loss.loss_db(6.0))
    assert p3 < p1
    # 3 m -> 6 m at exponent 3.0 costs 10*3*log10(2) ~ 9 dB.
    assert p1 - p3 == pytest.approx(30.0 * math.log10(2.0))


def test_gain_cache_mid_run_mobility_matches_uncached_channel():
    """A mobile scenario's rx powers must equal a cache-cold recomputation."""

    def rx_powers(invalidate_between):
        ctx = deterministic_context(seed=4)
        tx = ZigbeeDevice(ctx, "T", Position(0.0, 0.0))
        rx = ZigbeeDevice(ctx, "R", Position(2.0, 0.0))
        powers = []
        for step in range(5):
            powers.append(
                ctx.channel.mean_rx_power_dbm(
                    0.0, "T", tx.radio.position, "R", rx.radio.position
                )
            )
            rx.radio.move_to(Position(2.0 + step, 0.0))
            if invalidate_between:
                # Extra invalidations must never change values, only timing.
                ctx.channel.invalidate_gains()
        return powers

    assert rx_powers(False) == rx_powers(True)
