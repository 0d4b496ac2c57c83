"""Tests for the BLE connection substrate and the Sec. VII-D extension."""

import pytest

from repro.devices import ZigbeeDevice
from repro.experiments.ble_extension import BleTrialConfig, run_ble_coexistence
from repro.mac.ble import DATA_CHANNELS, MIN_USED_CHANNELS, BleConnection
from repro.mac.frames import zigbee_data_frame
from repro.phy.propagation import Position
from repro.sim.process import Process

from .helpers import deterministic_context


def make_link(ctx, **kwargs):
    return BleConnection(ctx, "link", Position(0, 0), Position(1.5, 0), **kwargs)


def test_clean_channel_events_succeed():
    ctx = deterministic_context()
    link = make_link(ctx, connection_interval=10e-3)
    link.start()
    ctx.sim.run(until=1.0)
    link.stop()
    assert link.events == pytest.approx(100, abs=2)
    assert link.event_success_rate > 0.99
    assert link.excluded_channels() == []


def test_hop_sequence_visits_many_channels():
    ctx = deterministic_context()
    link = make_link(ctx)
    seen = {link._next_channel() for _ in range(37)}
    assert len(seen) == 37  # hop increment 7 is coprime with 37


def test_remapping_avoids_excluded_channels():
    ctx = deterministic_context()
    link = make_link(ctx)
    link.used_channels = [ch for ch in DATA_CHANNELS if ch not in (33, 34)]
    for _ in range(200):
        assert link._next_channel() not in (33, 34)


def test_afh_excludes_jammed_channel():
    """A strong ZigBee transmitter on channel 24 (2470 MHz) must get BLE
    channel 34 excluded."""
    ctx = deterministic_context(seed=2)
    link = make_link(ctx, connection_interval=8e-3, afh_check_interval=0.4)
    zs = ZigbeeDevice(ctx, "ZS", Position(0.7, 0.4), channel=24, tx_power_dbm=0.0)

    def jam():
        while True:
            zs.mac.send_forced(zigbee_data_frame("ZS", "*", 100))
            yield 4.0e-3

    Process(ctx.sim, jam())
    link.start()
    ctx.sim.run(until=6.0)
    link.stop()
    assert 34 in link.excluded_channels()
    assert 34 not in link.used_channels


def test_afh_probation_readmits_channels():
    ctx = deterministic_context(seed=3)
    link = make_link(ctx, connection_interval=8e-3, afh_check_interval=0.3,
                     afh_probation=1.0)
    zs = ZigbeeDevice(ctx, "ZS", Position(0.7, 0.4), channel=24, tx_power_dbm=0.0)

    stop_at = 3.0
    def jam():
        while ctx.sim.now < stop_at:
            zs.mac.send_forced(zigbee_data_frame("ZS", "*", 100))
            yield 4.0e-3

    Process(ctx.sim, jam())
    link.start()
    ctx.sim.run(until=3.0)
    # The channel was excluded at least once while jammed (it may currently
    # be mid-probation-retry, so check the counter rather than the set).
    assert link.exclusions >= 1
    # Jammer gone: after probation the channel is re-admitted and stays.
    ctx.sim.run(until=8.0)
    link.stop()
    assert 34 not in link.excluded_channels()
    assert 34 in link.used_channels


def test_hop_map_never_shrinks_below_minimum():
    ctx = deterministic_context()
    link = make_link(ctx)
    # Pretend nearly everything failed.
    for ch in DATA_CHANNELS:
        link.stats[ch].attempts = 10
        link.stats[ch].failures = 10
    link._reclassify()
    assert len(link.used_channels) >= MIN_USED_CHANNELS


def test_double_start_rejected():
    ctx = deterministic_context()
    link = make_link(ctx)
    link.start()
    with pytest.raises(RuntimeError):
        link.start()
    link.stop()


def test_extension_experiment_afh_improves_ble():
    off = run_ble_coexistence(BleTrialConfig(afh_enabled=False, duration=8.0), seed=1)
    on = run_ble_coexistence(BleTrialConfig(afh_enabled=True, duration=8.0), seed=1)
    assert on.ble_late_success_rate >= off.ble_late_success_rate
    assert on.excluded_channels  # something was excluded
    assert on.zigbee_delivery_ratio > 0.8
    assert off.zigbee_delivery_ratio > 0.8
