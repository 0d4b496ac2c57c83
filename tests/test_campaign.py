"""Tests for the campaign runner: a named sweep saved in a directory."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.campaign import (
    CampaignError,
    CampaignRunner,
    CampaignSpec,
    plan_campaign,
)

FAST = {"n_bursts": (3, 4)}  # learning trials finish in ~0.15 s each


def fast_spec(**overrides):
    base = dict(
        name="test", experiment="learning", grid=dict(FAST),
        seeds=(0, 1), compare_by="n_bursts",
    )
    base.update(overrides)
    return CampaignSpec(**base)


def scenario_spec():
    """Two library scenarios x two seeds, each capped to 4000 events."""
    return CampaignSpec(
        name="scenarios", experiment="scenario",
        grid={"scenario": ("smart-home", "office")},
        base={"max_events": 4000}, seeds=(0, 1), compare_by="scenario",
    )


def _cache_entries(cache):
    return len(list(Path(cache).glob("*/*.json")))


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def test_plan_campaign_is_deterministic():
    spec = fast_spec()
    first = plan_campaign(spec)
    assert first == plan_campaign(spec)
    # grid x seeds, in insertion order.
    assert first == [
        ({"n_bursts": 3}, 0), ({"n_bursts": 3}, 1),
        ({"n_bursts": 4}, 0), ({"n_bursts": 4}, 1),
    ]


def test_plan_campaign_scenario_grid_merges_into_params():
    spec = CampaignSpec(
        name="s", experiment="scenario",
        grid={"scenario": ("office",)},
        scenario_grid={"scheme": ("bicord", "ecc")},
        seeds=(0,),
    )
    trials = plan_campaign(spec)
    assert len(trials) == 2
    assert {params["params"]["scheme"] for params, _ in trials} == {"bicord", "ecc"}


def test_spec_rejects_bad_shapes():
    with pytest.raises(KeyError):
        CampaignSpec(name="x", experiment="nope")
    with pytest.raises(ValueError):
        fast_spec(seeds=())
    with pytest.raises(ValueError):
        fast_spec(scenario_grid={"scheme": ("bicord",)})


def test_spec_fingerprint_tracks_content():
    assert fast_spec().fingerprint() == fast_spec().fingerprint()
    assert fast_spec().fingerprint() != fast_spec(seeds=(0, 2)).fingerprint()


# ----------------------------------------------------------------------
# Runner: end-to-end, resume, guards
# ----------------------------------------------------------------------
def test_campaign_runs_to_completion_and_reports(tmp_path):
    for spec, groups in (
        (fast_spec(), {3, 4}),
        (scenario_spec(), {"smart-home", "office"}),
    ):
        directory = tmp_path / spec.name
        runner = CampaignRunner(directory, cache_dir=tmp_path / "cache", quiet=True)
        run = runner.run(spec)
        assert run.complete and run.total == 4 and run.executed == 4
        # One group per compare_by value, n = seeds.
        assert set(run.summaries) == groups
        for metrics in run.summaries.values():
            assert all(summary.n == 2 for summary in metrics.values())
        # Completion artifacts exist and agree.
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["extra"]["fingerprint"] == spec.fingerprint()
        assert manifest["extra"]["trials"] == 4
        assert manifest["code_version"] and manifest["telemetry"]
        report = json.loads((directory / "report.json").read_text())
        assert report == manifest["report"]
        assert set(report) == {str(group) for group in groups}
        for group in report.values():
            assert all("ci95" in summary for summary in group.values())
        # `report` reads the same summaries back from the cache.
        assert runner.report() == run.summaries


def test_campaign_resume_skips_cached_trials(tmp_path):
    """A capped run, then a resume, reports exactly what an uninterrupted
    campaign on an empty cache reports."""
    for make_spec in (fast_spec, scenario_spec):
        base = tmp_path / make_spec.__name__
        cache = base / "cache"
        first = CampaignRunner(base / "camp", cache_dir=cache, quiet=True).run(
            make_spec(), max_trials=3
        )
        assert not first.complete and first.completed == 3
        assert first.executed == 3
        assert not (base / "camp" / "report.json").exists()
        resumed = CampaignRunner(base / "camp", cache_dir=cache, quiet=True).run()
        assert resumed.complete
        assert (resumed.executed, resumed.cached_hits) == (1, 3)

        CampaignRunner(
            base / "control", cache_dir=base / "fresh", quiet=True
        ).run(make_spec())
        assert (base / "camp" / "report.json").read_text() == (
            base / "control" / "report.json"
        ).read_text()


def test_campaign_resume_is_free_when_cache_survives(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    CampaignRunner(directory, cache_dir=cache, quiet=True).run(fast_spec())
    (directory / "report.json").unlink()
    rerun = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert rerun.complete and rerun.executed == 0
    assert rerun.cached_hits == 4
    assert (directory / "report.json").exists()


def test_campaign_rejects_spec_mismatch(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    CampaignRunner(directory, cache_dir=cache, quiet=True).run(
        fast_spec(), max_trials=1
    )
    with pytest.raises(CampaignError, match="different spec"):
        CampaignRunner(directory, cache_dir=cache, quiet=True).run(
            fast_spec(seeds=(5, 6))
        )


def test_campaign_max_trials_needs_the_cache(tmp_path):
    # Without the cache a capped run could never finish: nothing records
    # which trials ran.
    with pytest.raises(CampaignError, match="needs the trial cache"):
        CampaignRunner(tmp_path / "camp", cache=False, quiet=True).run(
            fast_spec(), max_trials=1
        )
    assert not (tmp_path / "camp").exists()


def test_campaign_refuses_an_old_layout(tmp_path):
    runner = CampaignRunner(tmp_path / "camp", quiet=True)
    runner.save_spec(fast_spec())
    payload = json.loads(runner.spec_path.read_text())
    payload["schema"] = 1
    runner.spec_path.write_text(json.dumps(payload))
    with pytest.raises(CampaignError, match="start a new campaign directory"):
        runner.run()


def test_campaign_status_probes_the_cache(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    runner = CampaignRunner(directory, cache_dir=cache, quiet=True)
    runner.run(fast_spec(), max_trials=3)
    status = runner.status()
    assert status.total == 4 and status.done == 3 and status.remaining == 1
    # A deleted entry is a trial to run again.
    next(Path(cache).glob("*/*.json")).unlink()
    assert runner.status().done == 2


def test_campaign_report_requires_trials(tmp_path):
    runner = CampaignRunner(tmp_path / "camp", quiet=True)
    runner.save_spec(fast_spec())
    with pytest.raises(CampaignError, match="4 of 4 planned trial.* not in the cache"):
        runner.report()


# ----------------------------------------------------------------------
# Kill/resume: the crash-safety contract
# ----------------------------------------------------------------------
CAMPAIGN_ARGS = [
    "campaign", "run", "--name", "killable",
    "--experiment", "learning", "--param", "n_bursts=3,4,5",
    "--seeds", "4", "--compare-by", "n_bursts", "--quiet",
]


def _spawn_campaign(directory, cache, jobs=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["BICORD_SWEEP_CACHE"] = str(cache)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *CAMPAIGN_ARGS,
         "--dir", str(directory), "--jobs", str(jobs)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_for_cache(cache, n_trials, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if _cache_entries(cache) >= n_trials:
            return
        time.sleep(0.05)
    raise AssertionError(f"the cache never reached {n_trials} trials")


def test_sigterm_kill_then_resume_zero_recompute(tmp_path):
    """Kill the campaign process mid-run; resume must recompute nothing
    cached, and its report must be bitwise-identical to an uninterrupted
    campaign's on an empty cache."""
    directory = tmp_path / "killed"
    cache = tmp_path / "cache"
    proc = _spawn_campaign(directory, cache)
    try:
        _wait_for_cache(cache, 2)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    cached_before = _cache_entries(cache)
    assert 0 < cached_before < 12, "kill landed before the campaign ended"

    resumed = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert resumed.complete and resumed.total == 12
    # Zero recomputation: only what the kill prevented executes.
    assert resumed.executed == 12 - cached_before
    assert resumed.cached_hits == cached_before

    control = CampaignRunner(
        tmp_path / "control", cache_dir=tmp_path / "fresh", quiet=True
    ).run(resumed.spec)
    assert control.complete and control.executed == 12
    killed_report = (directory / "report.json").read_text()
    control_report = (tmp_path / "control" / "report.json").read_text()
    assert killed_report == control_report


def test_sigterm_worker_kill_is_recoverable(tmp_path):
    """Killing one worker process breaks the pool, but every trial that
    finished first is cached; resume completes the campaign without
    recomputing them."""
    directory = tmp_path / "wkill"
    cache = tmp_path / "cache"
    proc = _spawn_campaign(directory, cache, jobs=2)
    try:
        _wait_for_cache(cache, 1)
        # Enumerate the pool's worker processes via /proc.
        children = []
        for task in Path(f"/proc/{proc.pid}/task").iterdir():
            children += (task / "children").read_text().split()
        if children:
            os.kill(int(children[0]), signal.SIGTERM)
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    cached_before = _cache_entries(cache)
    assert cached_before >= 1

    resumed = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert resumed.complete and resumed.total == 12
    assert resumed.executed == 12 - cached_before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_campaign_run_status_report(tmp_path, capsys):
    directory = str(tmp_path / "camp")
    cache = str(tmp_path / "cache")
    code = main([
        "campaign", "run", "--dir", directory, "--name", "cli-test",
        "--experiment", "learning", "--param", "n_bursts=3,4",
        "--seeds", "2", "--compare-by", "n_bursts",
        "--cache-dir", cache, "--quiet",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "4/4 trials done" in out
    assert "95% CI" in out

    assert main(["campaign", "status", "--dir", directory,
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "cli-test" in out and "remaining" in out

    assert main(["campaign", "report", "--dir", directory,
                 "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "+-" in out and "n_bursts" in out


def test_cli_campaign_range_expansion(tmp_path, capsys):
    code = main([
        "campaign", "run", "--dir", str(tmp_path / "camp"),
        "--experiment", "learning", "--param", "n_bursts=3:5",
        "--cache-dir", str(tmp_path / "cache"),
        "--compare-by", "n_bursts", "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2/2 trials done" in out  # 3:5 -> n_bursts in {3, 4}


def test_cli_campaign_unknown_param_is_a_usage_error(tmp_path, capsys):
    directory = tmp_path / "camp"
    argv = ["campaign", "run", "--dir", str(directory),
            "--experiment", "learning", "--cache-dir", str(tmp_path / "cache"),
            "--compare-by", "n_bursts", "--quiet"]
    assert main(argv + ["--param", "n_burst=3"]) == 2
    err = capsys.readouterr().err
    assert "unknown parameter(s) ['n_burst']" in err and "valid:" in err
    assert not directory.exists()
    # The corrected command then starts the campaign normally.
    assert main(argv + ["--param", "n_bursts=3"]) == 0
    assert "1/1 trials done" in capsys.readouterr().out


def test_cli_campaign_status_without_campaign_errors(tmp_path, capsys):
    code = main(["campaign", "status", "--dir", str(tmp_path / "nope")])
    assert code == 2
    assert "error" in capsys.readouterr().err
