"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import run_experiment


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    assert "the following arguments are required" in capsys.readouterr().err


def test_coexist_command_prints_metrics(capsys):
    code = main(["coexist", "--scheme", "bicord", "--bursts", "6", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "channel utilization" in out
    assert "delivery ratio" in out


def test_coexist_rejects_unknown_scheme(capsys):
    with pytest.raises(SystemExit):
        main(["coexist", "--scheme", "carrier-pigeon"])
    assert "invalid choice: 'carrier-pigeon'" in capsys.readouterr().err


def test_signaling_command(capsys):
    code = main(["signaling", "--location", "A", "--salvos", "10", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "precision" in out and "recall" in out


def test_learning_command(capsys):
    code = main(["learning", "--packets", "5", "--bursts", "8", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "trajectory (ms):" in out


def test_energy_command(capsys):
    code = main(["energy", "--bursts", "3", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "overhead (%)" in out


def test_ble_command_afh_toggle(capsys):
    code = main(["ble", "--no-afh", "--duration", "3", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "AFH off" in out


def test_priority_command(capsys):
    code = main(["priority", "--proportion", "0.2", "--duration", "2", "--seed", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "high-priority wifi delay" in out


# ----------------------------------------------------------------------
# Multi-seed flags and the sweep subcommand
# ----------------------------------------------------------------------
def test_coexist_multi_seed_aggregates(tmp_path, capsys):
    code = main(["coexist", "--bursts", "4", "--seeds", "2", "--jobs", "2",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean over 2 seeds" in out
    assert "2 trials: 2 executed, 0 cached" in out
    # Second invocation is served entirely from the cache.
    code = main(["coexist", "--bursts", "4", "--seeds", "2",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 executed, 2 cached" in out


def test_signaling_multi_seed(tmp_path, capsys):
    code = main(["signaling", "--salvos", "6", "--seeds", "2",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean over 2 seeds" in out
    assert "precision" in out and "recall" in out


def test_sweep_list(capsys):
    code = main(["sweep", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("coexistence", "signaling", "learning", "priority",
                 "energy", "cti", "device-id", "ble"):
        assert name in out


def test_sweep_runs_grid_and_caches(tmp_path, capsys):
    argv = ["sweep", "--experiment", "learning",
            "--param", "n_packets=3,5", "--param", "n_bursts=4",
            "--seeds", "2", "--cache-dir", str(tmp_path)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "4 trials: 4 executed, 0 cached" in out
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "4 trials: 0 executed, 4 cached" in out


def test_sweep_unknown_experiment_errors(capsys):
    code = main(["sweep", "--experiment", "quantum"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown experiment" in err


def test_sweep_unknown_param_errors(capsys):
    code = main(["sweep", "--experiment", "learning", "--param", "warp=9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown parameter" in err


def test_sweep_expands_integer_ranges_like_campaign(tmp_path, capsys):
    code = main(["sweep", "--experiment", "learning", "--param", "n_bursts=3:5",
                 "--cache-dir", str(tmp_path), "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 trials: 2 executed, 0 cached" in out  # n_bursts in {3, 4}


def test_sweep_requires_experiment(capsys):
    code = main(["sweep"])
    assert code == 2
    assert "--experiment is required" in capsys.readouterr().err


def test_sweep_malformed_param_errors(capsys):
    code = main(["sweep", "--experiment", "learning", "--param", "n_packets"])
    err = capsys.readouterr().err
    assert code == 2
    assert "KEY=VALUE" in err
    code = main(["sweep", "--experiment", "learning", "--param", "n_packets="])
    err = capsys.readouterr().err
    assert code == 2
    assert "no values" in err


def test_jobs_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["sweep", "--experiment", "learning",
                                   "--jobs", "0"])
    assert "--jobs: must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["coexist", "--seeds", "-1"])
    assert "--seeds: must be >= 1" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["coexist", "--bursts", "2", "--seed", "-1"])
    assert exit_info.value.code == 2
    assert "--seed: must be >= 0, got -1" in capsys.readouterr().err


def test_sweep_clear_cache(tmp_path, capsys):
    main(["sweep", "--experiment", "learning", "--param", "n_bursts=3",
          "--param", "n_packets=3", "--cache-dir", str(tmp_path), "--quiet"])
    capsys.readouterr()
    code = main(["sweep", "--clear-cache", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "cleared 1 cache entries" in out


# ----------------------------------------------------------------------
# Scenario subcommands
# ----------------------------------------------------------------------
def test_list_shows_experiments_and_scenarios(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coexistence" in out
    assert "dense-office" in out


def test_scenario_list(capsys):
    code = main(["scenario", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "smart-home" in out and "grid" in out


def test_scenario_describe_prints_spec_and_fingerprint(capsys):
    code = main(["scenario", "describe", "office"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"name": "office"' in out and '"location": "A"' in out
    assert "fingerprint" in out


def test_scenario_run_with_overrides(capsys):
    code = main(["scenario", "run", "grid", "--set", "n_zigbee_links=2",
                 "--set", "max_bursts=3", "--duration", "1.5",
                 "--max-events", "1500", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "delivery_ratio" in out
    assert "spec fingerprint:" in out


def test_scenario_run_unknown_name_errors(capsys):
    code = main(["scenario", "run", "atlantis"])
    err = capsys.readouterr().err
    assert code == 2
    assert "atlantis" in err


def test_scenario_run_unknown_param_errors(capsys):
    code = main(["scenario", "run", "grid", "--set", "warp=9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "warp" in err


@pytest.mark.parametrize("argv,message", [
    (["robustness", "--rates", "0,abc"], "rates must be in [0, 1]"),
    (["robustness", "--rates", "0,1.5"], "rates must be in [0, 1]"),
    (["roaming", "--speeds", "1,x"], "speeds must be finite and > 0"),
    (["roaming", "--speeds", "0"], "speeds must be finite and > 0"),
    (["roaming", "--aps", "2,x"], "at least 2 APs"),
    (["roaming", "--aps", "1"], "at least 2 APs"),
    (["roaming", "--schemes", "bicord,bogus"], "schemes must be among bicord, "),
    (["roaming", "--policy", "bogus"], "valid: sticky, strongest-rssi"),
    (["robustness", "--scenario", "bogus"], "unknown scenario 'bogus'; valid: "),
])
def test_malformed_comma_lists_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert message in err


def test_comma_lists_parse_to_numbers():
    args = build_parser().parse_args(["roaming", "--speeds", "1.5,5", "--aps", "2,4"])
    assert args.speeds == [1.5, 5.0] and args.aps == [2, 4]
    args = build_parser().parse_args(["robustness"])
    assert args.rates == [0.0, 0.1, 0.25, 0.5]


# ----------------------------------------------------------------------
# One run path for every experiment subcommand
# ----------------------------------------------------------------------
@pytest.mark.parametrize("argv,experiment", [
    (["coexist", "--bursts", "3"], "coexistence"),
    (["signaling", "--salvos", "5"], "signaling"),
    (["learning", "--packets", "3", "--bursts", "3"], "learning"),
    (["cti", "--traces", "4"], "cti"),
    (["priority", "--duration", "1"], "priority"),
    (["energy", "--bursts", "2"], "energy"),
    (["ble", "--duration", "1"], "ble"),
    (["scenario", "run", "grid", "--set", "n_zigbee_links=2",
      "--set", "max_bursts=3", "--duration", "1.5", "--max-events", "1500"],
     "scenario"),
])
def test_every_experiment_subcommand_writes_a_manifest(argv, experiment, tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = main(argv + ["--seed", "2", "--metrics-out", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 trials: 1 executed, 0 cached" in out
    manifest = json.loads(path.read_text().splitlines()[0])
    assert manifest["type"] == "manifest"
    assert manifest["experiment"] == experiment
    assert manifest["seeds"] == [2]


@pytest.mark.parametrize("argv,experiment,params", [
    (["coexist", "--scheme", "ecc", "--bursts", "4"], "coexistence",
     {"scheme": "ecc", "n_bursts": 4}),
    (["learning", "--packets", "3", "--bursts", "4"], "learning",
     {"n_packets": 3, "n_bursts": 4, "step": 30.0 * 1e-3}),
])
def test_single_seed_cli_numbers_equal_a_direct_run(argv, experiment, params,
                                                     tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    assert main(argv + ["--seed", "7", "--metrics-out", str(path)]) == 0
    capsys.readouterr()
    manifest = json.loads(path.read_text().splitlines()[0])
    assert manifest["metrics"] == run_experiment(experiment, seed=7, **params).metrics()


def test_single_seed_runs_are_served_from_the_trial_cache(tmp_path, capsys):
    argv = ["learning", "--packets", "3", "--bursts", "3", "--seed", "4",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "1 trials: 1 executed, 0 cached" in first
    assert "1 trials: 0 executed, 1 cached" in second
    # The cached result prints the same table and trajectory.
    assert first.split("1 trials:")[0] == second.split("1 trials:")[0]
    assert main(argv + ["--no-cache"]) == 0
    assert "1 trials: 1 executed, 0 cached" in capsys.readouterr().out


def test_cli_shared_flags_present_everywhere():
    """Every subcommand exposes the shared flag set."""
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    shared = {"--seed", "--seeds", "--jobs", "--cache-dir", "--no-cache",
              "--quiet", "--metrics-out", "--verbose"}
    for name, sub in subparsers.choices.items():
        if name == "list":  # pure listing, no execution to configure
            continue
        options = {
            option for action in sub._actions
            for option in action.option_strings
        }
        missing = shared - options
        assert not missing, f"subcommand {name!r} is missing {sorted(missing)}"
