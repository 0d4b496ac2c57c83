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
  (position-epoch invalidation), BLE retunes while foreign transmissions are
  in flight (gather-profile + slot refresh), and a radio attached while a
  transmission is on the air (slot coverage fallback);
* a hypothesis property test driving random transmit/advance/move/retune
  interleavings and comparing the incremental interference accumulators
  against a brute-force re-sum oracle after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context import build_context
from repro.devices.base import Radio
from repro.devices.interferers import Emitter
from repro.experiments.scenario import ScenarioTrialConfig, run_scenario_trial
from repro.mac.ble import BleConnection
from repro.mac.frames import Frame, FrameType
from repro.phy.medium import Technology
from repro.phy.medium_fast import VectorMedium
from repro.phy.propagation import FadingModel, Position
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


def test_radio_attached_mid_transmission(force_kernel):
    """A radio attached while a transmission is on the air sees the same
    (lazily computed) powers as the legacy dict fallback."""

    def scenario(ctx):
        a = _attach_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
        _attach_radio(ctx, "b", Position(6, 0), zigbee_channel(24), Technology.ZIGBEE)
        readings = []
        late = []

        def start_long():
            a.transmit_frame(_zigbee_frame("a", "b", 1), 0.0)

        def attach_late():
            late.append(
                _attach_radio(ctx, "late", Position(3, 1),
                              zigbee_channel(24), Technology.ZIGBEE)
            )
            # Query immediately, during the in-flight transmission (legacy
            # computes through the dict-fallback; vector through its own).
            readings.append(late[0].energy_dbm())

        ctx.sim.schedule(0.0, start_long)
        ctx.sim.schedule(0.4e-3, attach_late)  # mid-flight (frame ~1.6 ms)
        ctx.sim.schedule(1.0e-3, lambda: readings.append(late[0].energy_dbm()))
        # After the first frame ends, transmit again: the new radio is now a
        # first-class column of the link matrix.
        ctx.sim.schedule(5e-3, start_long)
        ctx.sim.schedule(5.5e-3, lambda: readings.append(late[0].energy_dbm()))
        ctx.sim.run(until=10e-3)
        return readings

    out = _dual_run(force_kernel, scenario, fading=FadingModel(2.0, 2.5))
    assert out["vector"] == out["legacy"]
    assert len(out["vector"][2]) == 3


# ----------------------------------------------------------------------
# Incremental interference accumulators vs brute-force re-sum
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


def _oracle_interference(medium, radio, exclude=(), wanted=None):
    """The legacy fold, re-run from scratch against the live active set."""
    total = 0.0
    for tx in medium._active.values():
        if tx.source is radio or tx.tx_id in exclude:
            continue
        if wanted is not None and tx.technology not in wanted:
            continue
        total += medium.captured_power_mw(tx, radio)
    return total


# ``force_kernel`` sets the same threshold for every example, so sharing the
# function-scoped fixture across examples is safe.
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=_OPS, seed=st.integers(min_value=0, max_value=9))
def test_accumulators_match_bruteforce_oracle(force_kernel, ops, seed):
    force_kernel("vector")
    ctx = build_context(seed=seed, fading=FadingModel(2.0, 2.5), trace_kinds=set())
    assert isinstance(ctx.medium, VectorMedium)
    medium = ctx.medium
    radios = [
        _attach_radio(ctx, f"r{i}", Position(1.5 * i, 0.7 * (i % 3)), band, tech)
        for i, (_, band, tech) in enumerate(_BANDS)
    ]
    busy_until = {}
    for op, a, b, c in ops:
        if op == "tx":
            src = radios[a]
            if busy_until.get(a, -1.0) > ctx.sim.now:
                continue
            busy_until[a] = ctx.sim.now + c
            medium.transmit(src, c, b, src.band, src.technology)
        elif op == "advance":
            ctx.sim.run(until=ctx.sim.now + a)
        elif op == "move":
            radios[a].move_to(Position(radios[a].position.x + b,
                                       radios[a].position.y))
        elif op == "move_many":
            # Batched churn: one epoch advance for a platoon of movers.
            medium.move_many(
                (radio, Position(radio.position.x + b, radio.position.y + 0.3))
                for radio in radios[a:a + 3]
            )
        elif op == "retune":
            radios[a].retune(_BANDS[b][1])
        active_ids = list(medium._active)
        for radio in radios:
            expected = _oracle_interference(medium, radio)
            assert medium.interference_mw(radio) == expected
            wanted = frozenset({Technology.WIFI})
            assert medium.interference_mw(radio, technologies=wanted) == (
                _oracle_interference(medium, radio, wanted=wanted)
            )
            if active_ids:
                excl = (active_ids[0],)
                assert medium.interference_mw(radio, exclude=excl) == (
                    _oracle_interference(medium, radio, exclude=excl)
                )
    ctx.sim.run(until=ctx.sim.now + 20e-3)  # drain; end-edge accounting
    for radio in radios:
        assert medium.interference_mw(radio) == 0.0
