"""Simulator performance: how much channel time a wall-clock second buys.

Unlike the reproduction benches (one expensive round each), these are
classic micro/meso benchmarks with multiple rounds: event-queue throughput,
medium transmit cost, and the simulated-seconds-per-wall-second of the full
paper scenario.  They guard against performance regressions that would make
the figure sweeps impractical.
"""

import functools
import time

import pytest

from repro.context import build_context
from repro.devices import WifiDevice, ZigbeeDevice, zigbee_device
from repro.phy.medium import Technology
from repro.phy.propagation import FadingModel, PathLossModel, Position
from repro.phy.rssi import RssiSampler
from repro.sim.engine import Simulator
from repro.traffic import WifiPacketSource


def test_engine_event_throughput(benchmark):
    """Schedule + fire 10k no-op events.

    This is the headline engine number tracked in ``BENCH_kernels.json``.
    """

    def run():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(i * 1e-6, _noop)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 10_000


def _noop():
    pass


def test_medium_transmit_cost(benchmark):
    """1000 transmissions across a 6-radio medium (the office population)."""

    def setup():
        ctx = build_context(
            seed=1,
            path_loss=PathLossModel(),
            fading=FadingModel(shadowing_sigma_db=0.0, fading_sigma_db=0.0),
            trace_kinds=set(),
        )
        radios = []
        for i in range(6):
            device = ZigbeeDevice(ctx, f"Z{i}", Position(float(i), 0.0))
            device.radio.enabled = False  # pure energy accounting, no locking
            radios.append(device.radio)
        return ctx, radios

    def run():
        ctx, radios = setup()
        source = radios[0]
        for i in range(1000):
            ctx.medium.transmit(source, 1e-5, 0.0, source.band, Technology.ZIGBEE)
            ctx.sim.run(until=(i + 1) * 2e-5)
        return ctx.sim.events_processed

    benchmark(run)


@pytest.mark.parametrize("kernel", ["legacy", "vector"])
def test_medium_broadcast_cost(benchmark, emit, force_kernel, kernel):
    """500 broadcasts across a 150-radio medium, per kernel.

    The purest view of the medium hot path: one transmitter, everyone else
    listening, no MAC/traffic noise.  Fading is enabled so the vector kernel
    pays its per-frame draw machinery too, not just the link matrix.  The
    two rows in ``BENCH_kernels.json`` track the per-broadcast gap directly
    (the scenario-level gap lives in ``test_scale_ceiling.py``).
    """
    N_RADIOS = 150
    N_BROADCASTS = 500
    force_kernel(kernel)

    def setup():
        ctx = build_context(
            seed=1,
            path_loss=PathLossModel(),
            fading=FadingModel(shadowing_sigma_db=2.0, fading_sigma_db=2.5),
            trace_kinds=set(),
        )
        radios = []
        for i in range(N_RADIOS):
            device = ZigbeeDevice(ctx, f"Z{i}", Position(float(i % 25), float(i // 25)))
            device.radio.enabled = False  # pure energy accounting, no locking
            radios.append(device.radio)
        return ctx, radios

    def run():
        ctx, radios = setup()
        source = radios[0]
        for i in range(N_BROADCASTS):
            ctx.medium.transmit(source, 1e-5, 0.0, source.band, Technology.ZIGBEE)
            ctx.sim.run(until=(i + 1) * 2e-5)
        return ctx.sim.events_processed

    benchmark(run)
    wall = benchmark.stats.stats.mean
    emit(
        f"medium_broadcast_{kernel}",
        f"medium broadcast ({kernel}): {N_BROADCASTS} broadcasts across "
        f"{N_RADIOS} radios in {wall * 1e3:.1f} ms "
        f"-> {wall / N_BROADCASTS * 1e6:.1f} us/broadcast",
    )


def test_scenario_realtime_factor(benchmark, emit):
    """Simulated seconds of the saturated-Wi-Fi office per wall second."""
    SIM_SECONDS = 2.0

    def run():
        ctx = build_context(
            seed=1,
            path_loss=PathLossModel(),
            fading=FadingModel(),
            trace_kinds=set(),
        )
        sender = WifiDevice(ctx, "E", Position(0, 0), data_rate_mbps=1.0)
        WifiDevice(ctx, "F", Position(3, 0), data_rate_mbps=1.0, with_csi=True)
        ZigbeeDevice(ctx, "ZS", Position(2.6, 0.9))
        ZigbeeDevice(ctx, "ZR", Position(3.8, 1.3))
        WifiPacketSource(ctx, sender.mac, "F", payload_bytes=100, interval=1e-3)
        ctx.sim.run(until=SIM_SECONDS)
        return ctx.sim.events_processed

    events = benchmark(run)
    stats = benchmark.stats.stats
    factor = SIM_SECONDS / stats.mean
    emit(
        "kernel_performance",
        f"scenario realtime factor: {factor:.1f}x "
        f"({events / SIM_SECONDS:.0f} events per simulated second, "
        f"{events / stats.mean:.0f} events/s wall)",
    )
    assert factor > 1.0  # the simulator must outrun the channel it models


def _rssi_capture_campaign(mode: str, n_captures: int) -> int:
    """Back-to-back 5 ms @ 40 kHz captures on a quiet medium (pure sampler cost)."""
    ctx = build_context(
        seed=2,
        path_loss=PathLossModel(),
        fading=FadingModel(),
        trace_kinds=set(),
    )
    device = ZigbeeDevice(ctx, "Z", Position(0.0, 0.0))
    sampler = RssiSampler(device.radio, ctx.sim, ctx.streams, mode=mode)
    captured = []

    def chain(i: int = 0) -> None:
        if i < n_captures:
            sampler.capture(
                5e-3, 40e3, lambda trace, i=i: (captured.append(trace), chain(i + 1))
            )

    chain()
    ctx.sim.run(until=n_captures * 5e-3 + 1.0)
    assert len(captured) == n_captures
    return sum(len(t) for t in captured)


def test_rssi_capture_cost(benchmark, emit):
    """Segment-based capture vs the legacy per-sample path (ZiSense workload).

    The segment path schedules one completion event per capture and
    synthesizes the trace vectorized, so its cost is independent of the
    sample rate; the legacy path pays one simulator event per sample.
    """
    N_CAPTURES = 25

    samples = benchmark(_rssi_capture_campaign, "segment", N_CAPTURES)
    assert samples == N_CAPTURES * 200

    legacy = min(
        _timed(_rssi_capture_campaign, "per_sample", N_CAPTURES) for _ in range(3)
    )
    factor = legacy / benchmark.stats.stats.mean
    emit(
        "rssi_capture_cost",
        f"rssi capture speedup: {factor:.1f}x "
        f"(segment {benchmark.stats.stats.mean * 1e3:.2f} ms, "
        f"per-sample {legacy * 1e3:.2f} ms for {N_CAPTURES} captures)",
    )
    assert factor >= 5.0


def test_rssi_capture_cost_legacy(benchmark):
    """Reference cost of the per-sample path (baseline row in BENCH_kernels.json)."""
    samples = benchmark(_rssi_capture_campaign, "per_sample", 25)
    assert samples == 25 * 200


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_rssi_scenario_realtime_factor(benchmark, emit, monkeypatch):
    """Full CTI-collection scenario: simulated seconds per wall second.

    Unlike :func:`test_scenario_realtime_factor` (which never touches the
    RSSI register), this runs the Sec. IV trace-collection campaign — Wi-Fi
    traffic plus a ZigBee collector sampling 5 ms @ 40 kHz per trace — once
    with the segment capture path and once with the legacy path, and asserts
    the end-to-end improvement the fast path must deliver.
    """
    from repro.experiments.cti_dataset import collect_traces

    N_TRACES = 40

    def campaign() -> int:
        traces, _floor = collect_traces("wifi", n_traces=N_TRACES, seed=11)
        return len(traces)

    n = benchmark(campaign)
    assert n == N_TRACES

    # Every ZigBee device the campaign builds samples on the per-sample path.
    monkeypatch.setattr(
        zigbee_device, "RssiSampler", functools.partial(RssiSampler, mode="per_sample")
    )
    legacy = min(_timed(campaign) for _ in range(3))
    # Min-to-min: the legacy side is already a best-of-3, so comparing it
    # against the segment *mean* makes the ratio collapse under machine
    # noise (long benchmark sessions inflate the mean with outlier rounds).
    factor = legacy / benchmark.stats.stats.min
    emit(
        "rssi_scenario_realtime_factor",
        f"cti campaign speedup: {factor:.2f}x "
        f"(segment {benchmark.stats.stats.min * 1e3:.1f} ms, "
        f"per-sample {legacy * 1e3:.1f} ms for {N_TRACES} traces)",
    )
    # Collection builds a few radios, so it runs on the per-radio-loop
    # medium, where the gap measures ~2.5x.  The bound leaves room for the
    # vector kernel, which serves per-sample energy queries from its
    # interference accumulators and narrows the gap to ~1.2-1.4x (the
    # capture path in isolation is still >=5x — see test_rssi_capture_cost).
    assert factor >= 1.1
