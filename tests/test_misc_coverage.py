"""Assorted coverage: CTI dataset plumbing, CLI slow paths, physics sanity."""

import pytest

from repro.core.powermap import CANDIDATE_POWERS_DBM
from repro.experiments.cti_dataset import collect_traces
from repro.phy.medium import Technology
from repro.phy.propagation import Position

from .helpers import deterministic_context


def test_candidate_powers_are_cc2420_levels():
    assert CANDIDATE_POWERS_DBM[0] == 0.0
    assert CANDIDATE_POWERS_DBM == sorted(CANDIDATE_POWERS_DBM, reverse=True)
    assert min(CANDIDATE_POWERS_DBM) == -25.0


def test_collect_traces_rejects_unknown_source():
    with pytest.raises(ValueError):
        collect_traces("carrier-pigeon", n_traces=1)


def test_collect_traces_each_source_has_distinct_energy_signature():
    """The collector actually hears each source type."""
    import numpy as np

    levels = {}
    for source in ("zigbee", "wifi", "microwave"):
        traces, floor = collect_traces(source, distance_m=2.0, n_traces=3, seed=1)
        busy_fraction = np.mean([
            np.mean(np.asarray(t.samples_dbm) > floor + 8.0) for t in traces
        ])
        levels[source] = busy_fraction
    assert levels["wifi"] > 0.3  # saturated sender
    assert levels["zigbee"] > 0.3  # 50 B every 2 ms
    assert 0.2 < levels["microwave"] < 0.9  # mains duty cycle


def test_cli_cti_small(capsys):
    from repro.cli import main

    code = main(["cti", "--traces", "6", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "wifi detection accuracy" in out


def test_cli_coexist_dump_and_load_roundtrip(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "cfg.json"
    code = main(["coexist", "--scheme", "ecc", "--bursts", "4", "--dump-config"])
    dumped = capsys.readouterr().out
    assert code == 0
    path.write_text(dumped)
    code = main(["coexist", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "coexistence: ecc" in out


def test_received_power_monotone_with_distance():
    """No fading: a receiver farther away gets strictly less power."""
    ctx = deterministic_context()
    from repro.devices import ZigbeeDevice

    tx = ZigbeeDevice(ctx, "T", Position(0, 0))
    receivers = [ZigbeeDevice(ctx, f"R{i}", Position(distance, 0))
                 for i, distance in enumerate((1.0, 2.0, 4.0, 8.0))]
    t = ctx.medium.transmit(tx.radio, 1e-4, 0.0, tx.radio.band, Technology.ZIGBEE)
    powers = [ctx.medium.rx_power_dbm(t, rx.radio) for rx in receivers]
    assert all(a > b for a, b in zip(powers, powers[1:]))
    # Log-distance: each doubling costs 10*n*log10(2) ~ 9.03 dB at n=3.
    deltas = [a - b for a, b in zip(powers, powers[1:])]
    for delta in deltas:
        assert delta == pytest.approx(9.03, abs=0.1)


def test_radio_move_affects_future_frames_only():
    ctx = deterministic_context()
    from repro.devices import ZigbeeDevice

    tx = ZigbeeDevice(ctx, "T", Position(0, 0))
    rx = ZigbeeDevice(ctx, "R", Position(2, 0))
    t1 = ctx.medium.transmit(tx.radio, 1e-4, 0.0, tx.radio.band, Technology.ZIGBEE)
    before = ctx.medium.rx_power_dbm(t1, rx.radio)
    rx.radio.move_to(Position(6, 0))
    # Cached for the in-flight frame:
    assert ctx.medium.rx_power_dbm(t1, rx.radio) == before
    ctx.sim.run(until=1e-3)
    t2 = ctx.medium.transmit(tx.radio, 1e-4, 0.0, tx.radio.band, Technology.ZIGBEE)
    after = ctx.medium.rx_power_dbm(t2, rx.radio)
    assert after < before - 10.0
