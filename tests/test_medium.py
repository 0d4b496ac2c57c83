"""Tests for the shared medium: power bookkeeping, notifications, energy."""

import dataclasses

import pytest

from repro.context import build_context
from repro.devices.base import Radio
from repro.phy.medium import Medium, Technology, _mac_sensitive
from repro.phy.medium_fast import VectorMedium
from repro.scenarios import compile_scenario, get_scenario
from repro.phy.spectrum import wifi_channel, zigbee_channel
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


def test_radio_by_name():
    ctx = deterministic_context()
    radio = make_radio(ctx, "a", Position(0, 0), wifi_channel(11), Technology.WIFI)
    assert ctx.medium.radio_by_name("a") is radio
    with pytest.raises(KeyError):
        ctx.medium.radio_by_name("ghost")


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


def test_busy_with_reports_active_technology():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    make_radio(ctx, "b", Position(2, 0), zigbee_channel(24), Technology.ZIGBEE)
    ctx.medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
    assert ctx.medium.busy_with(Technology.ZIGBEE)
    assert not ctx.medium.busy_with(Technology.WIFI)
    ctx.sim.run()
    assert not ctx.medium.busy_with(Technology.ZIGBEE)


def test_transmit_rejects_nonpositive_duration():
    ctx = deterministic_context()
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    with pytest.raises(ValueError):
        ctx.medium.transmit(a, 0.0, 0.0, a.band, Technology.ZIGBEE)


def test_block_fading_draws_match_scalar_stream_draws():
    """Fading is drawn 16 at a time per link; every frame still sees the
    link's next scalar draw, across refills, a ``move_many`` rebuild, a
    radio attached mid-transmission and a query after a frame ended."""
    seed, sigma = 7, 2.5
    ctx = build_context(seed=seed, fading=FadingModel(2.0, sigma), trace_kinds=set())
    assert type(ctx.medium) is Medium  # the loop kernel
    medium, channel = ctx.medium, ctx.channel
    a = make_radio(ctx, "a", Position(0, 0), zigbee_channel(24), Technology.ZIGBEE)
    b = make_radio(ctx, "b", Position(5, 0), zigbee_channel(24), Technology.ZIGBEE)
    reference = RandomStreams(seed=seed)
    draws = {name: reference.stream(f"fading/a->{name}") for name in ("b", "late")}

    def expected(name, radio):
        mean = channel.mean_rx_power_dbm(0.0, "a", a.position, name, radio.position)
        return mean + float(draws[name].normal(0.0, sigma))

    late = None
    for k in range(44):  # refills at frames 0, 16 and 32
        if k == 20:
            medium.move_many([(b, Position(9, 1))])
        tx = medium.transmit(a, 1e-3, 0.0, a.band, Technology.ZIGBEE)
        assert medium.rx_power_dbm(tx, b) == expected("b", b)
        if k == 25:
            late = make_radio(ctx, "late", Position(3, 3), zigbee_channel(24),
                              Technology.ZIGBEE)
        if late is not None:
            assert medium.rx_power_dbm(tx, late) == expected("late", late)
        ctx.sim.run(until=ctx.sim.now + 2e-3)
    # The frame has ended: a query draws afresh, from the buffer first.
    assert medium.rx_power_dbm(tx, b) == expected("b", b)


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
        get_scenario("grid", n_zigbee_links=16, n_wifi_pairs=4, duration=0.1), grace=0.0
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
