"""Tests for the stable repro.api facade and the ExperimentResult contract."""

import dataclasses

import pytest

import repro.api as api
from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ResultBase,
    check_result_contract,
    get_experiment,
)


# ----------------------------------------------------------------------
# ExperimentResult contract
# ----------------------------------------------------------------------
def test_every_registered_result_satisfies_the_contract():
    for name, spec in EXPERIMENTS.items():
        check_result_contract(spec.result_cls)  # raises on violation


def test_check_result_contract_rejects_untyped_shapes():
    class Bogus:
        pass

    with pytest.raises(TypeError, match="ExperimentResult"):
        check_result_contract(Bogus)


def test_results_roundtrip_and_carry_identity():
    result = api.run("learning", n_bursts=3, seed=11)
    assert isinstance(result, ExperimentResult)
    assert result.seed == 11
    metrics = result.metrics()
    assert metrics and all(isinstance(v, float) for v in metrics.values())
    rebuilt = type(result).from_dict(result.to_dict())
    assert rebuilt == result


def test_scheme_less_results_fall_back_to_neutral_identity():
    result = api.run("cti", n_traces=10, seed=2)
    assert result.scheme == ""  # ResultBase fallback, not a real field
    assert result.seed == 2  # real field, set by the runner


def test_registry_rejects_contract_violations():
    from repro.experiments import ExperimentSpec, register

    @dataclasses.dataclass
    class BadResult:
        value: float = 0.0

    spec = get_experiment("learning")
    with pytest.raises(TypeError, match="ExperimentResult"):
        register(ExperimentSpec(
            name="bad-result-test", runner=spec.runner,
            config_cls=spec.config_cls, result_cls=BadResult,
        ))
    assert "bad-result-test" not in EXPERIMENTS


def test_result_base_getattr_raises_for_unknown_names():
    @dataclasses.dataclass
    class Tiny(ResultBase):
        value: float = 1.0

    tiny = Tiny()
    assert tiny.scheme == "" and tiny.seed == -1
    with pytest.raises(AttributeError):
        tiny.nonexistent


# ----------------------------------------------------------------------
# Facade functions
# ----------------------------------------------------------------------
def test_api_run_matches_registry_contract():
    result = api.run("energy", n_bursts=3, seed=4)
    assert type(result).__name__ == "EnergyResult"
    assert result.seed == 4


def test_api_sweep_caches_and_replays(tmp_path):
    first = api.sweep(
        "learning", grid={"n_bursts": (3,)}, seeds=(0, 1),
        cache_dir=tmp_path,
    )
    assert first.executed == 2 and first.cached_hits == 0
    second = api.sweep(
        "learning", grid={"n_bursts": (3,)}, seeds=(0, 1),
        cache_dir=tmp_path,
    )
    assert second.executed == 0 and second.cached_hits == 2
    assert [r.to_dict() for r in first.results] == \
        [r.to_dict() for r in second.results]


def test_api_get_result_reads_the_cache(tmp_path):
    api.sweep("learning", grid={"n_bursts": (3,)}, seeds=(5,),
              cache_dir=tmp_path)
    hit = api.get_result("learning", {"n_bursts": 3}, seed=5,
                         cache_dir=tmp_path)
    assert hit is not None and hit.seed == 5
    miss = api.get_result("learning", {"n_bursts": 99}, seed=5,
                          cache_dir=tmp_path)
    assert miss is None


def test_api_load_scenario_resolves_specs():
    spec = api.load_scenario("smart-home")
    assert spec.name == "smart-home"
    assert spec.fingerprint() == api.load_scenario("smart-home").fingerprint()
    with pytest.raises(KeyError):
        api.load_scenario("no-such-scenario")


def test_api_campaign_runs_and_resumes(tmp_path):
    spec = {
        "name": "api-camp", "experiment": "learning",
        "grid": {"n_bursts": (3, 4)}, "seeds": (0,),
        "compare_by": "n_bursts",
    }
    run = api.campaign(spec, directory=tmp_path / "camp",
                       cache_dir=tmp_path / "cache", max_trials=1)
    assert not run.complete and run.completed == 1
    resumed = api.campaign(directory=tmp_path / "camp",
                           cache_dir=tmp_path / "cache")
    assert resumed.complete and resumed.executed == 1
    assert set(resumed.summaries) == {3, 4}
