"""Tests for ``campaign_from_generator`` and the ``campaign gen`` CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments import campaign_from_generator
from repro.experiments.campaign import plan_campaign


class TestCampaignFromGenerator:
    def test_builds_a_placement_sweep_spec(self):
        spec = campaign_from_generator(
            "placements", "random_uniform", count=5,
            params={"n_zigbee_links": 3}, seeds=(0, 1),
        )
        assert spec.experiment == "scenario"
        # The library canonicalizes generator names (hyphenated).
        assert spec.base["scenario"] == "random-uniform"
        assert spec.base["params"] == {"n_zigbee_links": 3}
        assert spec.scenario_grid == {"placement_seed": (0, 1, 2, 3, 4)}
        assert spec.seeds == (0, 1)
        # 5 placements x 2 seeds.
        assert len(plan_campaign(spec)) == 10

    def test_start_offsets_the_axis_range(self):
        spec = campaign_from_generator(
            "shifted", "random_uniform", count=3, start=100,
        )
        assert spec.scenario_grid == {"placement_seed": (100, 101, 102)}

    def test_base_and_grid_pass_through(self):
        spec = campaign_from_generator(
            "mixed", "random_uniform", count=2,
            base={"max_events": 50000},
            grid={"duration": (0.05, 0.1)},
        )
        assert spec.base["max_events"] == 50000
        assert spec.grid == {"duration": (0.05, 0.1)}
        # 2 placements x 2 durations x 1 seed.
        assert len(plan_campaign(spec)) == 4

    def test_grid_generator_has_no_placement_seed(self):
        # The deterministic 'grid' generator can't re-roll placements; the
        # helper must say so at build time, naming the valid knobs.
        with pytest.raises(ValueError, match="placement_seed"):
            campaign_from_generator("bad", "grid", count=4)

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            campaign_from_generator("bad", "no-such-generator", count=2)

    def test_unknown_fixed_param(self):
        with pytest.raises(ValueError, match="frobnicate"):
            campaign_from_generator(
                "bad", "random_uniform", count=2,
                params={"frobnicate": 1},
            )

    def test_axis_cannot_also_be_fixed(self):
        with pytest.raises(ValueError, match="swept, not fixed"):
            campaign_from_generator(
                "bad", "random_uniform", count=2,
                params={"placement_seed": 7},
            )

    def test_reserved_base_keys_rejected(self):
        with pytest.raises(ValueError, match="may not set"):
            campaign_from_generator(
                "bad", "random_uniform", count=2,
                base={"scenario": "office"},
            )
        with pytest.raises(ValueError, match="may not set"):
            campaign_from_generator(
                "bad", "random_uniform", count=2,
                grid={"params": ({},)},
            )

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count must be"):
            campaign_from_generator("bad", "random_uniform", count=0)


class TestCampaignGenCli:
    def test_gen_runs_a_generator_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BICORD_SWEEP_CACHE", str(tmp_path / "cache"))
        directory = tmp_path / "camp"
        code = main([
            "campaign", "gen", "--name", "cli-placements",
            "--generator", "random_uniform", "--count", "2",
            "--gen-param", "n_zigbee_links=2",
            "--base", "duration=0.02",
            "--dir", str(directory), "--quiet",
        ])
        assert code == 0
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["extra"]["campaign"] == "cli-placements"
        assert manifest["extra"]["trials"] == 2
        # The campaign carries its provenance.
        assert manifest["experiment"] == "scenario"
        assert manifest["code_version"]

    def test_gen_requires_a_generator(self, tmp_path, capsys):
        code = main([
            "campaign", "gen", "--name", "x", "--dir", str(tmp_path / "c"),
        ])
        assert code == 2
        assert "--generator" in capsys.readouterr().err

    def test_gen_surfaces_validation_errors(self, tmp_path, capsys):
        code = main([
            "campaign", "gen", "--name", "x",
            "--generator", "grid", "--count", "2",
            "--dir", str(tmp_path / "c"),
        ])
        assert code == 2
        assert "placement_seed" in capsys.readouterr().err
