"""Tests for the shared medium: power bookkeeping, notifications, energy."""

import dataclasses

import pytest

from repro.context import VECTOR_MEDIUM_MIN_RADIOS, build_context
from repro.devices.base import Radio
from repro.devices.interferers import Emitter
from repro.phy.medium import _FADING_BATCH as LOOP_FADING_BATCH
from repro.phy.medium import Medium, Technology, _mac_sensitive
from repro.phy.medium_fast import _FADING_BATCH as VECTOR_FADING_BATCH
from repro.phy.medium_fast import VectorMedium
from repro.scenarios import compile_scenario, get_scenario
from repro.phy.spectrum import wifi_channel, zigbee_channel
from repro.sim import rng
from repro.sim.rng import RandomStreams
from repro.sim.units import dbm_to_mw, mw_to_dbm
from repro.phy.propagation import FadingModel, Position

from .helpers import deterministic_context


def make_radio(ctx, name, pos, band, tech, **kwargs):
    radio = Radio(
        name=name,
        position=pos,
        band=band,
        technology=tech,
        sim=ctx.sim,
        streams=ctx.streams,
        trace=ctx.trace,
        **kwargs,
    )
    ctx.medium.attach(radio)
    return radio


def test_duplicate_radio_names_rejected():
    ctx = deterministic_context()
    make_radio(ctx, "a", Position(0, 0), wifi_channel(11), Technology.WIFI)
    with pytest.raises(ValueError):
        make_radio(ctx, "a", Position(1, 0), wifi_channel(11), Technology.WIFI)


def test_rx_power_follows_path_loss():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(10, 0), zigbee_channel(24), Technology.ZIGBEE)
    tx = ctx.medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
    # 0 dBm - (40 + 30*log10(10)) = -70 dBm
    assert ctx.medium.rx_power_dbm(tx, b) == pytest.approx(-70.0)


def test_energy_is_noise_floor_when_idle():
    ctx = deterministic_context()
    radio = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE,
                       noise_figure_db=5.0)
    assert radio.energy_dbm() == pytest.approx(radio.noise_floor_dbm)
    assert radio.noise_floor_dbm == pytest.approx(-106.0, abs=0.1)


def test_energy_includes_active_transmission_and_clears_after():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(2, 0), zigbee_channel(24), Technology.ZIGBEE)
    readings = []
    ctx.medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
    ctx.sim.schedule(0.5e-3, lambda: readings.append(b.energy_dbm()))
    ctx.sim.schedule(2e-3, lambda: readings.append(b.energy_dbm()))
    ctx.sim.run()
    during, after = readings
    assert during == pytest.approx(-49.03, abs=0.2)  # 40 + 30*log10(2)
    assert after == pytest.approx(b.noise_floor_dbm, abs=0.1)


def test_energy_excludes_own_transmission():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    make_radio(ctx, "b", Position(2, 0), zigbee_channel(24), Technology.ZIGBEE)
    ctx.medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
    assert a.energy_dbm() == pytest.approx(a.noise_floor_dbm, abs=0.1)


def test_cross_band_energy_weighted_by_overlap():
    """Wi-Fi power into a ZigBee filter is attenuated by 10 dB (2/20 MHz)."""
    ctx = deterministic_context()
    w = make_radio(ctx, "w", Position(0, 0), wifi_channel(11), Technology.WIFI)
    z = make_radio(ctx, "z", Position(2, 0), zigbee_channel(24), Technology.ZIGBEE)
    ctx.medium.transmit(w, 1e-3, 20.0, w.band, Technology.WIFI)
    # 20 dBm - 49.03 dB path loss - 10 dB overlap = -39.03 dBm in band.
    assert z.energy_dbm() == pytest.approx(-39.03, abs=0.2)


def test_disjoint_band_contributes_nothing():
    ctx = deterministic_context()
    w = make_radio(ctx, "w", Position(0, 0), wifi_channel(1), Technology.WIFI)
    z = make_radio(ctx, "z", Position(2, 0), zigbee_channel(26), Technology.ZIGBEE)
    ctx.medium.transmit(w, 1e-3, 20.0, w.band, Technology.WIFI)
    assert z.energy_dbm() == pytest.approx(z.noise_floor_dbm, abs=0.1)


def test_energy_sums_multiple_transmitters():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 2), zigbee_channel(24), Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(0, -2), zigbee_channel(24), Technology.ZIGBEE)
    observer = make_radio(ctx, "o", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    ctx.medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
    ctx.medium.transmit(b, 1e-3, 0.0, b.band, Technology.ZIGBEE)
    single = 0.0 - (40 + 30 * 0.30103)  # each at 2 m
    expected = mw_to_dbm(2 * dbm_to_mw(single) + dbm_to_mw(observer.noise_floor_dbm))
    assert observer.energy_dbm() == pytest.approx(expected, abs=0.1)


def test_technology_filter_on_energy():
    ctx = deterministic_context()
    w = make_radio(ctx, "w", Position(0, 0), wifi_channel(11), Technology.WIFI)
    z = make_radio(ctx, "z", Position(1, 0), zigbee_channel(24), Technology.ZIGBEE)
    observer = make_radio(ctx, "o", Position(0, 1), wifi_channel(11), Technology.WIFI)
    ctx.medium.transmit(w, 1e-3, 20.0, w.band, Technology.WIFI)
    ctx.medium.transmit(z, 1e-3, 0.0, z.band, Technology.ZIGBEE)
    wifi_only = observer.energy_dbm_of({Technology.WIFI})
    zigbee_only = observer.energy_dbm_of({Technology.ZIGBEE})
    both = observer.energy_dbm()
    assert wifi_only > zigbee_only
    assert both >= wifi_only


def test_transmit_rejects_nonpositive_duration():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    with pytest.raises(ValueError):
        ctx.medium.transmit(a, 0.0, 0.0, a.band, Technology.ZIGBEE)


def test_block_fading_draws_match_scalar_stream_draws():
    """Fading is drawn a block at a time per link; every frame still sees the
    link's next scalar draw, across refills and a ``move_many`` rebuild."""
    seed, sigma = 7, 2.5
    ctx = build_context(seed=seed, fading=FadingModel(2.0, sigma), trace_kinds=set())
    assert type(ctx.medium) is Medium  # the loop kernel
    medium, channel = ctx.medium, ctx.channel
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(5, 0), zigbee_channel(24), Technology.ZIGBEE)
    reference = RandomStreams(seed=seed)
    draws = {"b": reference.stream("fading/a->b")}

    def expected(name, radio):
        mean = channel.mean_rx_power_dbm(0.0, "a", a.position, name, radio.position)
        return mean + float(draws[name].normal(0.0, sigma))

    block = LOOP_FADING_BATCH
    for k in range(2 * block + 12):  # refills at frames 0, block and 2 * block
        if k == block + 4:
            medium.move_many([(b, Position(9, 1))])
        tx = medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
        assert medium.rx_power_dbm(tx, b) == expected("b", b)
        ctx.sim.run(until=ctx.sim.now + 2e-3)


def test_vector_block_fading_draws_match_scalar_stream_draws():
    """The vector kernel's twin of the test above, plus a source that is not
    an attached radio: every link's rx power is its mean plus the link
    stream's next scalar draw, whatever the buffers and the channel's stored
    stream state hold."""
    seed, sigma = 7, 2.5
    ctx = build_context(seed=seed, fading=FadingModel(2.0, sigma), trace_kinds=set(),
                        n_radios=VECTOR_MEDIUM_MIN_RADIOS)
    assert type(ctx.medium) is VectorMedium
    medium, channel = ctx.medium, ctx.channel
    band = zigbee_channel(24)
    a = make_radio(ctx, "a", Position(0, 0), band, Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(5, 0), band, Technology.ZIGBEE)
    c = make_radio(ctx, "c", Position(0, 4), band, Technology.ZIGBEE)
    emitter = Emitter(ctx, "e", Position(2, 2))
    reference = RandomStreams(seed=seed)
    draws = {}

    def expected(src, radio):
        stream = draws.get((src.name, radio.name))
        if stream is None:
            stream = draws[(src.name, radio.name)] = reference.stream(
                f"fading/{src.name}->{radio.name}"
            )
        mean = channel.mean_rx_power_dbm(0.0, src.name, src.position, radio.name,
                                         radio.position)
        return mean + float(stream.normal(0.0, sigma))

    block = VECTOR_FADING_BATCH
    for k in range(2 * block + 12):  # refills at frames 0, block and 2 * block
        if k == block + 4:
            medium.move_many([(b, Position(9, 1))])
        tx = medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
        for radio in (b, c):
            assert medium.rx_power_dbm(tx, radio) == expected(a, radio)
        if k % 2 == 0:
            # Rows keyed by a source that no attached radio is: no link skipped.
            etx = emitter.emit(5e-4, 0.0, band, Technology.ZIGBEE)
            assert medium._link_rows["e"].src_index == -1
            for radio in (a, b, c):
                assert medium.rx_power_dbm(etx, radio) == expected(emitter, radio)
        ctx.sim.run(until=ctx.sim.now + 2e-3)


@pytest.mark.parametrize("state_copy", [None, False], ids=["struct", "state-dict"])
@pytest.mark.parametrize(
    "check",
    [test_block_fading_draws_match_scalar_stream_draws,
     test_vector_block_fading_draws_match_scalar_stream_draws],
    ids=["loop", "vector"],
)
def test_block_fading_draws_on_both_state_paths(check, state_copy, monkeypatch):
    """Both kernels' block tests with link states loaded and stored through
    the verified in-place state copy (None) and through the ``state`` dict
    (False forces it)."""
    if state_copy is None:
        assert rng._state_copy_ok()
    else:
        monkeypatch.setattr(rng, "_state_copy_ok", lambda: False)
    check()


@pytest.mark.parametrize("n_radios", [0, VECTOR_MEDIUM_MIN_RADIOS])
def test_emitter_sharing_a_radio_name_keeps_its_link_draws(n_radios):
    """An emitter named like radio ``a`` has a link ``a->a``; frames of the
    radio ``a`` itself must neither consume nor drop that link's draws, and
    only the emitter's rows need the ``a|a`` shadowing pair."""
    seed, sigma = 7, 2.5
    ctx = build_context(seed=seed, fading=FadingModel(2.0, sigma), trace_kinds=set(),
                        n_radios=n_radios)
    medium, channel = ctx.medium, ctx.channel
    band = zigbee_channel(24)
    a = make_radio(ctx, "a", Position(0, 0), band, Technology.ZIGBEE)
    make_radio(ctx, "b", Position(5, 0), band, Technology.ZIGBEE)
    emitter = Emitter(ctx, "a", Position(2, 2))
    stream = RandomStreams(seed=seed).stream("fading/a->a")
    medium.transmit(a, 1e-3, 0.0, band, Technology.ZIGBEE)
    assert ("a", "a") not in channel._shadowing_cache
    for _ in range(40):
        medium.transmit(a, 1e-3, 0.0, band, Technology.ZIGBEE)
        etx = emitter.emit(5e-4, 0.0, band, Technology.ZIGBEE)
        mean = channel.mean_rx_power_dbm(0.0, "a", emitter.position, "a", a.position)
        assert medium.rx_power_dbm(etx, a) == mean + float(stream.normal(0.0, sigma))
        ctx.sim.run(until=ctx.sim.now + 2e-3)


def test_vector_medium_calls_a_locked_radio_only_at_its_frame_end(monkeypatch):
    """On the vector kernel a locked radio whose MAC ignores medium events is
    called for no edge but its locked frame's end: the medium folds its
    interference record across every other edge itself."""
    calls = []  # (radio, method, tx id, locked tx id or None)
    for name in ("on_transmission_start", "on_transmission_end"):
        original = getattr(Radio, name)

        def recording(radio, tx, name=name, original=original):
            lock = radio._lock
            calls.append((radio, name, tx.tx_id, None if lock is None else lock.tx.tx_id))
            return original(radio, tx)

        monkeypatch.setattr(Radio, name, recording)
    spec = dataclasses.replace(
        get_scenario("grid", n_zigbee_links=18, n_wifi_pairs=4, duration=0.1), grace=0.0
    )
    compiled = compile_scenario(spec, 3)
    assert isinstance(compiled.ctx.medium, VectorMedium)
    compiled.run()
    quiet = [call for call in calls if not _mac_sensitive(call[0])]
    stray = [
        (radio.name, method, tx_id, lock_id)
        for radio, method, tx_id, lock_id in quiet
        if lock_id is not None and (method == "on_transmission_start" or tx_id != lock_id)
    ]
    assert stray == []
    # Lock candidates are still called, and their receptions still complete.
    assert len(quiet) > 200
    radios = [radio for radio in compiled.ctx.medium.radios if not _mac_sensitive(radio)]
    assert sum(radio.frames_received + radio.frames_lost for radio in radios) > 200
