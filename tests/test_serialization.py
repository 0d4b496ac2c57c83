"""Tests for config serialization (dataclass <-> dict/JSON round-trips)."""

import dataclasses
import json

import pytest

from repro.core import BicordConfig
from repro.experiments import Calibration, CoexistenceConfig, SweepEngine
from repro.experiments.registry import EXPERIMENTS
from repro.serialization import SpecError, dumps, from_dict, loads, to_dict


def test_bicord_config_roundtrip():
    config = BicordConfig()
    config.detector.required_samples = 3
    config.allocator.initial_whitespace = 40e-3
    config.signaling.piggyback_data = True
    data = to_dict(config)
    restored = from_dict(BicordConfig, data)
    assert restored == config
    assert restored.detector.required_samples == 3
    assert restored.signaling.piggyback_data is True


def test_coexistence_config_roundtrip_json():
    config = CoexistenceConfig(scheme="ecc", n_bursts=12, ecc_whitespace=30e-3)
    text = dumps(config)
    restored = loads(CoexistenceConfig, text)
    assert restored == config


def test_calibration_roundtrip():
    calibration = Calibration(path_loss_exponent=3.3, csi_noise_spike_prob=0.05)
    assert from_dict(Calibration, to_dict(calibration)) == calibration


def test_missing_keys_use_defaults():
    restored = from_dict(Calibration, {"pl0_db": 42.0})
    assert restored.pl0_db == 42.0
    assert restored.path_loss_exponent == Calibration().path_loss_exponent


def test_unknown_keys_rejected_loudly():
    with pytest.raises(ValueError, match="unknown key"):
        from_dict(Calibration, {"pl0_db": 42.0, "pl0_dbb": 1.0})


def test_nested_unknown_keys_rejected():
    data = to_dict(BicordConfig())
    data["detector"]["windoww"] = 1.0
    with pytest.raises(ValueError, match="windoww"):
        from_dict(BicordConfig, data)


def test_non_dataclass_rejected():
    with pytest.raises(TypeError):
        from_dict(dict, {})
    with pytest.raises(TypeError):
        to_dict(object())


def test_from_dict_requires_mapping():
    with pytest.raises(SpecError, match="expected a table/object for Calibration, got list"):
        from_dict(Calibration, [1, 2, 3])


def test_json_output_is_stable_and_readable():
    text = dumps(Calibration())
    assert '"pl0_db"' in text
    # sorted keys -> deterministic manifests
    assert text == dumps(Calibration())


def test_dict_valued_fields_coerce_typed_values():
    """Dict[str, Dataclass] fields round-trip as dataclasses, not raw dicts."""
    from repro.experiments.metrics import UtilizationSnapshot
    from repro.experiments.scenario import LinkResult, ScenarioResult

    result = ScenarioResult(
        scenario="t", seed=0, scheme="bicord", duration=1.0,
        spec_fingerprint="f",
        utilization=UtilizationSnapshot(
            duration=1.0, wifi_airtime=0.2, zigbee_airtime=0.1),
        links={"z": LinkResult(name="z", offered=4, delivered=3,
                               delays=[0.01, 0.02])},
    )
    restored = from_dict(ScenarioResult, to_dict(result))
    assert isinstance(restored.links["z"], LinkResult)
    assert restored.links["z"].delivery_ratio == pytest.approx(0.75)
    assert restored == result


def test_validation_still_runs_on_deserialization():
    """__post_init__ checks fire when configs are rebuilt from dicts."""
    data = to_dict(CoexistenceConfig())
    data["scheme"] = "smoke-signals"
    with pytest.raises(ValueError):
        from_dict(CoexistenceConfig, data)


# ----------------------------------------------------------------------
# The one strict decoder: path-tagged errors and the shapes it covers
# ----------------------------------------------------------------------
def test_ill_typed_values_raise_path_tagged_spec_errors():
    data = to_dict(CoexistenceConfig())
    data["bicord_config"]["detector"]["required_samples"] = "2"
    with pytest.raises(SpecError, match=r"^bicord_config\.detector\.required_samples: "
                                        r"expected an integer, got str"):
        from_dict(CoexistenceConfig, data)
    with pytest.raises(SpecError, match=r"^n_bursts: expected an integer, got float"):
        from_dict(CoexistenceConfig, {"n_bursts": 3.0})
    with pytest.raises(SpecError, match=r"^burst_interval: expected a number, got str"):
        from_dict(CoexistenceConfig, {"burst_interval": "2.5"})
    with pytest.raises(SpecError, match=r"^poisson: expected a boolean, got int"):
        from_dict(CoexistenceConfig, {"poisson": 1})


def test_int_in_a_float_field_decodes_to_float():
    config = from_dict(CoexistenceConfig, {"burst_interval": 1, "signaling_power_dbm": -3})
    assert config == CoexistenceConfig(burst_interval=1.0, signaling_power_dbm=-3.0)
    assert type(config.burst_interval) is float
    assert type(config.signaling_power_dbm) is float


def test_container_shapes_decode_to_their_annotations():
    from repro.experiments.campaign import CampaignSpec
    from repro.experiments.cti_dataset import DeviceIdTrialConfig
    from repro.experiments.metrics import CoexistenceResult

    spec = from_dict(CampaignSpec, {
        "name": "c", "experiment": "learning",
        "grid": {"n_bursts": [3, 4]}, "seeds": [0, 1],
    })
    assert spec.grid == {"n_bursts": (3, 4)} and spec.seeds == (0, 1)
    assert from_dict(DeviceIdTrialConfig, {"distances": [1, 2.5]}).distances == (1.0, 2.5)
    required = {"scheme": "ecc", "location": "A", "duration": 1.0, "utilization": {
        "duration": 1.0, "wifi_airtime": 0.5, "zigbee_airtime": 0.1}}
    result = from_dict(CoexistenceResult, {
        **required, "zigbee_delays": [0.5, 1], "extra": {"k": 2, "r": 0.5},
    })
    assert result.zigbee_delays == [0.5, 1.0] and type(result.zigbee_delays[1]) is float
    # Union[int, float]: the first arm that fits, so a counter stays an int.
    assert result.extra == {"k": 2, "r": 0.5} and type(result.extra["k"]) is int
    with pytest.raises(SpecError, match=r"^extra\.k: expected a number"):
        from_dict(CoexistenceResult, {**required, "extra": {"k": None}})
    with pytest.raises(SpecError, match=r"^zigbee_delays\[1\]: expected a number"):
        from_dict(CoexistenceResult, {**required, "zigbee_delays": [0.5, "x"]})
    with pytest.raises(SpecError, match=r"^utilization: missing key\(s\) \['utilization'\]"):
        from_dict(CoexistenceResult, {"scheme": "e", "location": "A", "duration": 1.0})
    with pytest.raises(SpecError, match=r"^seeds: expected a list, got str"):
        from_dict(CampaignSpec, {"name": "c", "experiment": "learning", "seeds": "01"})


# ----------------------------------------------------------------------
# Every registered experiment's config and result round-trip exactly
# ----------------------------------------------------------------------
#: Small runs of every registered experiment (about 0.05 s each).
SMALL_RUNS = {
    "signaling": dict(n_salvos=3),
    "coexistence": dict(n_bursts=2, grace=0.2),
    "learning": dict(n_bursts=2),
    "priority": dict(total_duration=0.3),
    "energy": dict(n_bursts=2),
    "cti": dict(n_traces=6),
    "device-id": dict(n_traces=6, distances=(1.0, 3.0)),
    "robustness": dict(n_bursts=2, rate=0.1),
    "scenario": dict(duration=0.3),
    "roaming": dict(duration=0.3),
    "ble": dict(duration=0.3),
}


def _leaf_types(obj):
    """Type of every scalar in a dataclass tree, in field order."""
    if dataclasses.is_dataclass(obj):
        return [_leaf_types(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple)):
        return [type(obj)] + [_leaf_types(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _leaf_types(value) for key, value in obj.items()}
    return type(obj)


def _json_round_trip(obj):
    return from_dict(type(obj), json.loads(json.dumps(to_dict(obj))))


def test_small_runs_cover_every_registered_experiment():
    assert set(SMALL_RUNS) == set(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_experiment_config_and_result_round_trip_exactly(name, tmp_path):
    """Default configs and results decode to equal objects of equal scalar
    types, and a second run is served entirely from the cache (whose loader
    would count a decode error as a miss)."""
    config = EXPERIMENTS[name].config_cls()
    assert _json_round_trip(config) == config
    assert _leaf_types(_json_round_trip(config)) == _leaf_types(config)

    engine = SweepEngine(jobs=1, cache_dir=tmp_path, quiet=True)
    first = engine.run_trials(name, [SMALL_RUNS[name]], seeds=(1,))
    (result,) = first.results
    assert _json_round_trip(result) == result
    assert _leaf_types(_json_round_trip(result)) == _leaf_types(result)
    second = engine.run_trials(name, [SMALL_RUNS[name]], seeds=(1,))
    assert (second.executed, second.cached_hits) == (0, 1)
    assert second.results == first.results
    assert _leaf_types(second.results[0]) == _leaf_types(result)
