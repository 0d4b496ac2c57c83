"""Tests for the sharded resumable campaign runner and its statistics."""

import json
import math
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
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    plan_campaign,
)
from repro.experiments.stats import (
    MetricSummary,
    aggregate_records,
    comparison_table,
    summarize,
    t_critical,
)

FAST = {"n_bursts": (3, 4)}  # learning trials finish in ~0.15 s each


def fast_spec(**overrides):
    base = dict(
        name="test", experiment="learning", grid=dict(FAST),
        seeds=(0, 1), shards=2,
        compare_by="n_bursts",
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_summarize_matches_scipy_t_interval():
    values = [1.0, 2.0, 4.0, 8.0, 16.0]
    summary = summarize(values)
    assert summary.n == 5
    assert summary.mean == pytest.approx(6.2)
    scipy_stats = pytest.importorskip("scipy.stats")
    lo, hi = scipy_stats.t.interval(
        0.95, df=4, loc=summary.mean, scale=summary.stderr
    )
    assert summary.lo == pytest.approx(lo)
    assert summary.hi == pytest.approx(hi)


def test_summarize_single_value_has_zero_interval():
    summary = summarize([3.5])
    assert summary.mean == 3.5
    assert summary.ci95 == 0.0 and summary.std == 0.0


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_t_critical_fallback_is_normal_quantile():
    # Large df converges to the 1.96 normal quantile either way.
    assert t_critical(10_000) == pytest.approx(1.96, abs=0.01)


def test_aggregate_records_groups_by_compare_key():
    records = [
        ({"scheme": "bicord", "x": 1}, {"prr": 0.9}),
        ({"scheme": "bicord", "x": 2}, {"prr": 0.8}),
        ({"scheme": "ecc", "x": 1}, {"prr": 0.5}),
    ]
    out = aggregate_records(records, compare_by="scheme")
    assert set(out) == {"bicord", "ecc"}
    assert out["bicord"]["prr"].n == 2
    assert out["bicord"]["prr"].mean == pytest.approx(0.85)
    assert out["ecc"]["prr"].n == 1


def test_aggregate_records_batch_means_folds_seeds_per_combo():
    # Two combos x two seeds each: batch means sees 2 observations, not 4.
    records = [
        ({"scheme": "s", "combo": 1}, {"m": 0.0}),
        ({"scheme": "s", "combo": 1}, {"m": 1.0}),
        ({"scheme": "s", "combo": 2}, {"m": 10.0}),
        ({"scheme": "s", "combo": 2}, {"m": 11.0}),
    ]
    flat = aggregate_records(records, compare_by="scheme")
    batched = aggregate_records(records, compare_by="scheme", batch=True)
    assert flat["s"]["m"].n == 4
    assert batched["s"]["m"].n == 2
    assert batched["s"]["m"].mean == pytest.approx(5.5)
    # Batch observations are (0.5, 10.5).
    assert batched["s"]["m"].std == pytest.approx(
        math.sqrt((0.5 - 5.5) ** 2 * 2 / 1)
    )


def test_comparison_table_renders_groups_and_metrics():
    table = comparison_table({
        "a": {"prr": MetricSummary(3, 0.9, 0.1, 0.05, 0.2)},
        "b": {"prr": MetricSummary(3, 0.5, 0.1, 0.05, 0.2)},
    })
    assert "a" in table and "b" in table and "prr" in table
    assert "+-" in table


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def test_plan_campaign_is_deterministic_and_sharded():
    spec = fast_spec(shards=3)
    first = plan_campaign(spec)
    second = plan_campaign(spec)
    assert [t.key for t in first] == [t.key for t in second]
    assert len(first) == 4  # 2 grid points x 2 seeds
    assert [t.shard for t in first] == [0, 1, 2, 0]
    assert len({t.key for t in first}) == 4


def test_plan_campaign_scenario_grid_merges_into_params():
    spec = CampaignSpec(
        name="s", experiment="scenario",
        grid={"scenario": ("office",)},
        scenario_grid={"scheme": ("bicord", "ecc")},
        seeds=(0,),
    )
    trials = plan_campaign(spec)
    assert len(trials) == 2
    assert {t.params["params"]["scheme"] for t in trials} == {"bicord", "ecc"}


def test_spec_rejects_bad_shapes():
    with pytest.raises(KeyError):
        CampaignSpec(name="x", experiment="nope")
    with pytest.raises(ValueError):
        fast_spec(shards=0)
    with pytest.raises(ValueError):
        fast_spec(seeds=())
    with pytest.raises(ValueError):
        fast_spec(scenario_grid={"scheme": ("bicord",)})


def test_spec_fingerprint_tracks_content():
    assert fast_spec().fingerprint() == fast_spec().fingerprint()
    assert fast_spec().fingerprint() != fast_spec(seeds=(0, 2)).fingerprint()


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
def test_journal_roundtrip_and_torn_line_tolerance(tmp_path):
    spec = fast_spec()
    journal = CampaignJournal(tmp_path / "journal.jsonl")
    journal.write_header(spec, 4)
    journal.close()
    # Simulate a kill mid-append: a torn, unterminated trial line.
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "trial", "index": 0, "ke')
    header, trials = CampaignJournal(journal.path).read()
    assert header["fingerprint"] == spec.fingerprint()
    assert header["total"] == 4
    assert trials == {}


# ----------------------------------------------------------------------
# Runner: end-to-end, resume, guards
# ----------------------------------------------------------------------
def test_campaign_runs_to_completion_and_reports(tmp_path):
    runner = CampaignRunner(
        tmp_path / "camp", cache_dir=tmp_path / "cache", quiet=True
    )
    run = runner.run(fast_spec())
    assert run.complete and run.total == 4 and run.executed == 4
    assert run.summaries is not None
    # compare_by=n_bursts: one group per grid value, n = seeds.
    assert set(run.summaries) == {3, 4}
    assert run.summaries[3]["iterations"].n == 2
    # Completion artifacts exist and agree.
    manifest = json.loads((tmp_path / "camp" / "manifest.json").read_text())
    assert manifest["fingerprint"] == fast_spec().fingerprint()
    assert manifest["trials"] == 4
    assert len(manifest["shard_manifests"]) == 2
    report = json.loads((tmp_path / "camp" / "report.json").read_text())
    assert set(report) == {"3", "4"}
    assert report["3"]["iterations"]["n"] == 2
    # Typed round-trip: report.json loads back as MetricSummary objects
    # that equal the in-memory summaries (n as int, statistics as float).
    loaded = runner.load_report()
    assert set(loaded) == {"3", "4"}
    for group, metrics in loaded.items():
        for name, summary in metrics.items():
            assert isinstance(summary.n, int)
            assert summary == run.summaries[int(group)][name]


def test_load_report_before_completion_raises(tmp_path):
    runner = CampaignRunner(tmp_path / "camp", quiet=True)
    runner.save_spec(fast_spec())
    with pytest.raises(CampaignError, match="no report.json"):
        runner.load_report()


def test_campaign_resume_skips_journaled_trials(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    first = CampaignRunner(directory, cache_dir=cache, quiet=True).run(
        fast_spec(), max_trials=3
    )
    assert not first.complete and first.completed == 3
    resumed = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert resumed.complete
    assert resumed.executed == 1  # only the trial the cap excluded


def test_campaign_resume_is_free_when_cache_survives(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    CampaignRunner(directory, cache_dir=cache, quiet=True).run(fast_spec())
    # Lose the journal but keep the cache: the re-run recomputes nothing.
    (directory / "journal.jsonl").unlink()
    rerun = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert rerun.complete and rerun.executed == 0
    assert rerun.cached_hits == 4


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


def test_campaign_status_and_verify_cache(tmp_path):
    directory = tmp_path / "camp"
    cache = tmp_path / "cache"
    runner = CampaignRunner(directory, cache_dir=cache, quiet=True)
    runner.run(fast_spec(), max_trials=3)
    status = runner.status()
    assert status.total == 4 and status.done == 3 and status.remaining == 1
    assert not status.complete
    assert sum(status.per_shard.values()) == 3
    hits, journaled = runner.verify_cache()
    assert (hits, journaled) == (3, 3)


def test_campaign_report_requires_trials(tmp_path):
    runner = CampaignRunner(tmp_path / "camp", quiet=True)
    runner.save_spec(fast_spec())
    with pytest.raises(CampaignError, match="no completed trials"):
        runner.report()


# ----------------------------------------------------------------------
# Kill/resume: the crash-safety contract (satellite acceptance test)
# ----------------------------------------------------------------------
CAMPAIGN_ARGS = [
    "campaign", "run", "--name", "killable",
    "--experiment", "learning", "--param", "n_bursts=3,4,5",
    "--seeds", "4", "--shards", "2", "--compare-by", "n_bursts", "--quiet",
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


def _wait_for_journal(path, n_trials, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, done = CampaignJournal(path).read()
        if len(done) >= n_trials:
            return done
        time.sleep(0.05)
    raise AssertionError(f"journal never reached {n_trials} trials")


def test_sigterm_kill_then_resume_zero_recompute(tmp_path):
    """Kill the campaign process mid-run; resume must recompute nothing
    journaled, and the final aggregates must be bitwise-identical to an
    uninterrupted campaign's."""
    directory = tmp_path / "killed"
    cache = tmp_path / "cache"
    proc = _spawn_campaign(directory, cache)
    try:
        _wait_for_journal(directory / "journal.jsonl", 2)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    _, done_before = CampaignJournal(directory / "journal.jsonl").read()
    assert 0 < len(done_before) < 12, "kill landed before the campaign ended"

    resumed = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert resumed.complete and resumed.total == 12
    # Zero recomputation of journaled work: this invocation computed only
    # what the kill prevented (executed + journaled >= total because a
    # trial can finish its cache write but die before its journal line —
    # that trial resumes as a cache hit, not a recompute).
    assert resumed.executed <= 12 - len(done_before)
    assert resumed.executed + resumed.cached_hits == 12 - len(done_before)

    # An uninterrupted control campaign over the same cache is pure cache
    # hits (zero misses) and produces bitwise-identical aggregates.
    control = CampaignRunner(
        tmp_path / "control", cache_dir=cache, quiet=True
    ).run(resumed.spec)
    assert control.complete and control.executed == 0
    assert control.cached_hits == 12
    killed_report = (directory / "report.json").read_text()
    control_report = (tmp_path / "control" / "report.json").read_text()
    assert killed_report == control_report


def test_sigterm_worker_kill_is_recoverable(tmp_path):
    """Killing one worker process mid-shard breaks the pool, but every
    trial that finished first is journaled+cached; resume completes the
    campaign without recomputing them."""
    directory = tmp_path / "wkill"
    cache = tmp_path / "cache"
    proc = _spawn_campaign(directory, cache, jobs=2)
    try:
        _wait_for_journal(directory / "journal.jsonl", 1)
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
    _, done_before = CampaignJournal(directory / "journal.jsonl").read()
    assert len(done_before) >= 1

    resumed = CampaignRunner(directory, cache_dir=cache, quiet=True).run()
    assert resumed.complete and resumed.total == 12
    assert resumed.executed <= 12 - len(done_before)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_campaign_run_status_report(tmp_path, capsys):
    directory = str(tmp_path / "camp")
    cache = str(tmp_path / "cache")
    code = main([
        "campaign", "run", "--dir", directory, "--name", "cli-test",
        "--experiment", "learning", "--param", "n_bursts=3,4",
        "--seeds", "2", "--shards", "2", "--compare-by", "n_bursts",
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

    assert main(["campaign", "report", "--dir", directory]) == 0
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


def test_cli_campaign_status_without_campaign_errors(tmp_path, capsys):
    code = main(["campaign", "status", "--dir", str(tmp_path / "nope")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_shared_flags_present_everywhere():
    """Satellite: every subcommand exposes the shared flag set."""
    from repro.cli import build_parser

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
