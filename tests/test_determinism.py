"""Determinism: a run is a pure function of its seed.

This is the property the whole experiment harness leans on — repeated runs
with one seed must agree bit-for-bit, and different seeds must explore
different sample paths.  The golden pins at the bottom go further: they
fix the exact bytes of a result, so a refactor of how a run is wired
cannot change what it computes without failing here.
"""

import pytest

from repro.experiments import (
    CoexistenceConfig,
    EnergyTrialConfig,
    LearningTrialConfig,
    PriorityTrialConfig,
    RobustnessTrialConfig,
    SignalingTrialConfig,
    run_coexistence,
    run_energy_trial,
    run_learning_trial,
    run_priority_experiment,
    run_robustness_trial,
    run_signaling_trial,
)
from repro.faults import FaultPlan
from repro.serialization import canonical_dumps, stable_hash


def coexistence_fingerprint(seed):
    result = run_coexistence(CoexistenceConfig(scheme="bicord", n_bursts=10, seed=seed))
    return (
        result.zigbee_packets_delivered,
        tuple(result.zigbee_delays),
        result.utilization.wifi_airtime,
        result.utilization.zigbee_airtime,
        result.control_packets,
        result.whitespaces_issued,
    )


def test_coexistence_bit_identical_across_runs():
    assert coexistence_fingerprint(7) == coexistence_fingerprint(7)


def test_coexistence_differs_across_seeds():
    assert coexistence_fingerprint(7) != coexistence_fingerprint(8)


def test_signaling_trial_deterministic():
    config = SignalingTrialConfig(location="C", power_dbm=-1.0, n_salvos=20)
    a = run_signaling_trial(config, seed=3)
    b = run_signaling_trial(config, seed=3)
    assert a.pr == b.pr
    assert a.wifi_prr == b.wifi_prr


def test_learning_trial_deterministic():
    config = LearningTrialConfig(n_packets=10, n_bursts=8)
    a = run_learning_trial(config, seed=5)
    b = run_learning_trial(config, seed=5)
    assert a.trajectory == b.trajectory
    assert a.final_whitespace == b.final_whitespace


def test_ecc_run_deterministic():
    def fingerprint():
        r = run_coexistence(CoexistenceConfig(scheme="ecc", n_bursts=10, seed=9))
        return (r.zigbee_packets_delivered, tuple(r.zigbee_delays))

    assert fingerprint() == fingerprint()


# ----------------------------------------------------------------------
# Golden pins: stable_hash(canonical_dumps(result)) of fixed runs
# ----------------------------------------------------------------------
def _digest(result) -> str:
    return stable_hash(canonical_dumps(result))


COEXISTENCE_PINS = {
    ("bicord", "none"): "c9d572b6eceac95e6c894012cc0c29c5d60b8c3cd81370ed34c9567811c3c425",
    ("bicord", "person"): "e0c53ffd9f9e09713bf5d60eb724590314ba782d17d5997e1e53a9ddcd564a4e",
    ("bicord", "device"): "3ecd51c3a05cc73bcbbfcb4d8bb1683db6bb9385a5a9053875a97e6d980404bd",
    ("bicord", "faults"): "f2f7252d34aaff798fc83165346b8d3d66408803c643b279533b76c505177c6d",
    ("ecc", "none"): "75532c94c2dfbc5b89cad8fda3489b72ac2b6253bf758c772907042d6dd56ec4",
    ("ecc", "person"): "75532c94c2dfbc5b89cad8fda3489b72ac2b6253bf758c772907042d6dd56ec4",
    ("ecc", "device"): "75532c94c2dfbc5b89cad8fda3489b72ac2b6253bf758c772907042d6dd56ec4",
    ("ecc", "faults"): "b9c300e1a37d16e67fb782d577c444614b82b46a5a458ec932767d550fc817ad",
    ("csma", "none"): "ee3ed7db7386792f06753afa8768642846b98c51075a50ea1d21e969ff735948",
    ("csma", "person"): "ee3ed7db7386792f06753afa8768642846b98c51075a50ea1d21e969ff735948",
    ("csma", "device"): "31f9723ea8fb424ba6f9624cc7f852d4b40ec01becceb43a2c7572a7c8222321",
    ("csma", "faults"): "cd34cca1b02c93f868eb694725eddcbcaad716929b585f477059c5d48640a36e",
    ("predictive", "none"): "3ef37fa986a425b1e6da58fb235a0cf49f364f11451b1564b2e6ea8b2af99912",
    ("predictive", "person"): "3ef37fa986a425b1e6da58fb235a0cf49f364f11451b1564b2e6ea8b2af99912",
    ("predictive", "device"): "3ef37fa986a425b1e6da58fb235a0cf49f364f11451b1564b2e6ea8b2af99912",
    ("predictive", "faults"): "1a313daa10f16734b2929090f04b8c130b6266565148bb1b9e84fc6e6ff656c5",
    ("slow-ctc", "none"): "d27459dccdd893e13dea32d52eff0af2a432937c92ae6fbbc84e1a9d84a759e9",
    ("slow-ctc", "person"): "d27459dccdd893e13dea32d52eff0af2a432937c92ae6fbbc84e1a9d84a759e9",
    ("slow-ctc", "device"): "d27459dccdd893e13dea32d52eff0af2a432937c92ae6fbbc84e1a9d84a759e9",
    ("slow-ctc", "faults"): "f7f160d1ce33e18f6328d979089bf948f7abc111142ae417d6adf0f659453aa6",
}


@pytest.mark.parametrize("scheme,variant", sorted(COEXISTENCE_PINS))
def test_coexistence_golden(scheme, variant):
    if variant == "faults":
        extra = {"faults": FaultPlan.from_dimension("all", 0.25)}
    else:
        extra = {"mobility": variant}
    config = CoexistenceConfig(scheme=scheme, n_bursts=8, seed=5, **extra)
    assert _digest(run_coexistence(config)) == COEXISTENCE_PINS[scheme, variant]


@pytest.mark.parametrize("scheme,digest", [
    ("bicord", "2bbe6038792651f0a3fa026399ea39aec1d850dfeaf79c09fdf4aeab3d2398b6"),
    ("ecc", "018b273b8a1455f6aa255d99826c73aae64cdcd3deafc446333945eaf4393cb7"),
])
def test_priority_golden(scheme, digest):
    config = PriorityTrialConfig(scheme=scheme, total_duration=2.0)
    assert _digest(run_priority_experiment(config, seed=5)) == digest


def test_priority_golden_at_location_c():
    # Away from A the ZigBee pair moves: pins the location -> position mapping.
    config = PriorityTrialConfig(scheme="bicord", total_duration=2.0, location="C")
    assert _digest(run_priority_experiment(config, seed=5)) == (
        "171e1ece97b4726fab53e55a11789d8ff92b57548f5e82a2419cf50b5bfee68a"
    )


@pytest.mark.parametrize("config,seed,digest", [
    (
        SignalingTrialConfig(location="C", power_dbm=-1.0, n_salvos=20), 3,
        "f60c03f1caf4f4a28bc6238d3da441f81f5dabe1bcde1299ce5a687a2a37f6de",
    ),
    (
        SignalingTrialConfig(location="B", n_control_packets=2, n_salvos=15), 0,
        "f5ec7ef33ee2d07ed0b789884767cfef3ecc7134fd4d52ffbab6d43faac37429",
    ),
])
def test_signaling_golden(config, seed, digest):
    assert _digest(run_signaling_trial(config, seed=seed)) == digest


@pytest.mark.parametrize("config,seed,digest", [
    (
        LearningTrialConfig(n_packets=10, n_bursts=8), 5,
        "3a74890f425282d3b858e628b8878f42ef4619b0cf4cc45e51aa33febb3eaf42",
    ),
    (
        LearningTrialConfig(n_packets=6, step=20e-3, location="D", n_bursts=6), 0,
        "c2b6d89048e513bfe17cb10987a89c5a900d8748a04c0e92d1eaf8b80ca297f1",
    ),
])
def test_learning_golden(config, seed, digest):
    assert _digest(run_learning_trial(config, seed=seed)) == digest


def test_energy_golden():
    config = EnergyTrialConfig(n_packets=5, n_bursts=4)
    assert _digest(run_energy_trial(config, seed=5)) == (
        "521edfbaf26235d67f6963326d430444d780efc40364039a9902cfa9a571ab71"
    )


@pytest.mark.parametrize("scenario,digest", [
    (None, "22ace932cf4ad62f689d9f9bd1ca7f9357b700c24880c447f0476adc06cf672f"),
    ("office", "afd79d7fed6864149ed92d56a8028a36530a3364bd268124f19598e512a804ab"),
])
def test_robustness_golden(scenario, digest):
    if scenario is None:
        config = RobustnessTrialConfig(rate=0.25, n_bursts=8)
    else:
        config = RobustnessTrialConfig(
            rate=0.25, scenario=scenario, scenario_params={"n_bursts": 8}
        )
    assert _digest(run_robustness_trial(config, seed=5)) == digest
