"""Tests for the experiment harness: topology, metrics, runners, reporting."""

import numpy as np
import pytest

from repro.experiments import (
    Calibration,
    CoexistenceConfig,
    EnergyTrialConfig,
    LearningTrialConfig,
    LOCATIONS,
    LOCATION_POWERS_DBM,
    PriorityTrialConfig,
    SignalingTrialConfig,
    aggregate,
    format_series,
    format_table,
    run_coexistence,
    run_energy_trial,
    run_learning_trial,
    run_priority_experiment,
    run_signaling_trial,
)
from repro.experiments.metrics import (
    AirtimeProbe,
    PrecisionRecall,
    UtilizationSnapshot,
)
from repro.experiments.topology import WIFI_RECEIVER_POS, WIFI_SENDER_POS
from repro.scenarios import compile_scenario, get_scenario


# ----------------------------------------------------------------------
# Topology
# ----------------------------------------------------------------------
def test_location_geometry_invariants():
    """A is closest to F; D is closest to E among C/D; B is farthest from F."""
    d_to_f = {k: p.distance_to(WIFI_RECEIVER_POS) for k, p in LOCATIONS.items()}
    d_to_e = {k: p.distance_to(WIFI_SENDER_POS) for k, p in LOCATIONS.items()}
    assert d_to_f["A"] == min(d_to_f.values())
    assert d_to_e["D"] < d_to_e["A"] and d_to_e["D"] < d_to_e["B"]
    assert d_to_e["C"] < d_to_e["A"]


def test_location_powers_follow_footnote3():
    assert LOCATION_POWERS_DBM == {"A": 0.0, "B": 0.0, "C": -1.0, "D": -3.0}


def test_unknown_location_rejected():
    with pytest.raises(ValueError, match="unknown location 'X'"):
        get_scenario("office", location="X")
    with pytest.raises(ValueError, match="unknown location 'X'"):
        run_learning_trial(LearningTrialConfig(location="X"))


def test_zigbee_channel_overlaps_wifi_channel():
    office = compile_scenario(get_scenario("office"))
    assert office.device("ZS").radio.band.overlaps(office.device("E").radio.band)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_precision_recall_math():
    pr = PrecisionRecall(true_positives=90, false_positives=10, salvos=100,
                         salvos_detected=85)
    assert pr.precision == pytest.approx(0.9)
    assert pr.recall == pytest.approx(0.85)
    empty = PrecisionRecall(0, 0, 0, 0)
    assert empty.precision == 0.0 and empty.recall == 0.0


def test_utilization_snapshot():
    snap = UtilizationSnapshot(duration=10.0, wifi_airtime=7.0, zigbee_airtime=1.0)
    assert snap.channel_utilization == pytest.approx(0.8)
    assert snap.wifi_utilization == pytest.approx(0.7)
    assert snap.zigbee_utilization == pytest.approx(0.1)


def test_airtime_probe_windows():
    office = compile_scenario(get_scenario("office"), seed=1)
    wifi, zigbee = office.device("E").radio, office.device("ZS").radio
    probe = AirtimeProbe([wifi], [zigbee])
    probe.start(0.0)
    wifi.tx_airtime += 0.5
    snap = probe.snapshot(2.0)
    assert snap.wifi_airtime == pytest.approx(0.5)
    assert snap.duration == pytest.approx(2.0)


def test_aggregate_means_summaries():
    from repro.experiments.metrics import CoexistenceResult

    a = CoexistenceResult("bicord", "A", 1.0,
                          UtilizationSnapshot(1.0, 0.8, 0.1),
                          zigbee_delays=[0.01], zigbee_packets_offered=10,
                          zigbee_packets_delivered=10, zigbee_payload_bytes=500)
    b = CoexistenceResult("bicord", "A", 1.0,
                          UtilizationSnapshot(1.0, 0.6, 0.1),
                          zigbee_delays=[0.03], zigbee_packets_offered=10,
                          zigbee_packets_delivered=5, zigbee_payload_bytes=250)
    agg = aggregate([a, b])
    assert agg["utilization"] == pytest.approx(0.8)
    assert agg["mean_delay_ms"] == pytest.approx(20.0)
    with pytest.raises(ValueError):
        aggregate([])


# ----------------------------------------------------------------------
# Runners (small workloads; shape checks)
# ----------------------------------------------------------------------
def test_signaling_trial_returns_sane_pr():
    config = SignalingTrialConfig(
        location="A", power_dbm=0.0, n_control_packets=4, n_salvos=15
    )
    result = run_signaling_trial(config, seed=1)
    assert 0.8 <= result.pr.recall <= 1.0
    assert 0.8 <= result.pr.precision <= 1.0
    assert result.wifi_prr > 0.9


def test_coexistence_config_validation():
    with pytest.raises(ValueError):
        CoexistenceConfig(scheme="magic")
    with pytest.raises(ValueError):
        CoexistenceConfig(mobility="teleport")


def test_coexistence_bicord_beats_ecc_on_delay():
    """The paper's headline comparison, at small scale."""
    bicord = run_coexistence(CoexistenceConfig(scheme="bicord", n_bursts=10, seed=2))
    ecc = run_coexistence(CoexistenceConfig(scheme="ecc", n_bursts=10, seed=2,
                                            ecc_whitespace=20e-3))
    assert bicord.delivery_ratio > 0.9
    assert ecc.delivery_ratio > 0.9
    assert bicord.mean_delay < ecc.mean_delay
    assert bicord.mean_delay < 0.08


def test_coexistence_csma_starves():
    result = run_coexistence(CoexistenceConfig(scheme="csma", n_bursts=8, seed=3))
    assert result.delivery_ratio < 0.3


def test_mobility_modes_run():
    static = run_coexistence(CoexistenceConfig(n_bursts=8, seed=4, mobility="none"))
    person = run_coexistence(CoexistenceConfig(n_bursts=8, seed=4, mobility="person"))
    device = run_coexistence(CoexistenceConfig(n_bursts=8, seed=4, mobility="device"))
    for r in (static, person, device):
        assert r.delivery_ratio > 0.8
    # Mobility cannot *increase* utilization by much (paper: <=9% drop).
    assert person.channel_utilization < static.channel_utilization + 0.05


def test_learning_trial_converges_for_ten_packets():
    config = LearningTrialConfig(n_packets=10, step=30e-3, n_bursts=12)
    result = run_learning_trial(config, seed=5)
    assert result.converged
    assert 0.05 < result.final_whitespace < 0.15
    assert result.iterations <= 8  # Fig. 8: average always below 8
    assert result.final_whitespace >= result.burst_airtime * 0.8


def test_learning_trial_bigger_bursts_need_longer_whitespace():
    small = run_learning_trial(
        LearningTrialConfig(n_packets=5, step=30e-3, n_bursts=10), seed=6
    )
    large = run_learning_trial(
        LearningTrialConfig(n_packets=15, step=30e-3, n_bursts=10), seed=6
    )
    assert large.final_whitespace > small.final_whitespace


def test_priority_experiment_high_priority_protected():
    config = PriorityTrialConfig(
        scheme="bicord", high_proportion=0.4, total_duration=3.0
    )
    result = run_priority_experiment(config, seed=7)
    # High-priority Wi-Fi traffic must not suffer more than low-priority.
    assert result.high_priority_wifi_delay <= result.low_priority_wifi_delay * 1.2
    assert result.zigbee_utilization > 0.0


def test_priority_experiment_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="priority-honoring scheme 'csma'"):
        PriorityTrialConfig(scheme="csma", total_duration=1.0)


def test_energy_trial_overhead_band():
    """Sec. VII-B: BiCord costs extra energy, but within a small multiple."""
    result = run_energy_trial(EnergyTrialConfig(n_bursts=4), seed=8)
    assert result.bicord_mj > result.clear_channel_mj
    assert 0.0 < result.overhead_fraction < 0.8
    assert result.control_packets > 0


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_format_table_alignment_and_floats():
    text = format_table(["name", "value"], [["a", 0.5], ["long-name", 1.25]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "0.5000" in text and "1.2500" in text
    assert lines[1].index("value") == lines[3].index("0.5000")


def test_format_series():
    text = format_series("util", ["100ms", "2s"], [0.81, 0.9])
    assert text == "util: 100ms=0.810, 2s=0.900"
