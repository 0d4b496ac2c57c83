"""Sweep engine: grid expansion, caching, parallel determinism."""

import json

import pytest

from repro.experiments import (
    SweepEngine,
    SweepSpec,
    expand_grid,
    trial_key,
)
from repro.experiments.sweep import CACHE_SCHEMA, default_cache_dir
from repro.serialization import canonical_dumps


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def test_expand_grid_cartesian_product_in_order():
    combos = expand_grid({"a": (1, 2), "b": ("x", "y", "z")})
    assert len(combos) == 6
    assert combos[0] == {"a": 1, "b": "x"}
    assert combos[-1] == {"a": 2, "b": "z"}
    # first axis varies slowest
    assert [c["a"] for c in combos] == [1, 1, 1, 2, 2, 2]


def test_expand_grid_merges_base_and_grid_wins():
    combos = expand_grid({"a": (1,)}, base={"a": 99, "b": 7})
    assert combos == [{"a": 1, "b": 7}]


def test_expand_grid_empty_grid_is_one_trial():
    assert expand_grid({}, base={"n": 3}) == [{"n": 3}]


def test_expand_grid_rejects_scalar_axis():
    with pytest.raises(TypeError):
        expand_grid({"a": 5})
    with pytest.raises(TypeError):
        expand_grid({"a": "AB"})  # a string is not a value list
    with pytest.raises(ValueError):
        expand_grid({"a": ()})


# ----------------------------------------------------------------------
# Trial keys (content addressing)
# ----------------------------------------------------------------------
def test_trial_key_stable_and_param_order_independent():
    k1 = trial_key("learning", {"n_packets": 5, "n_bursts": 4}, seed=1)
    k2 = trial_key("learning", {"n_bursts": 4, "n_packets": 5}, seed=1)
    assert k1 == k2
    assert len(k1) == 64


def test_trial_key_resolves_defaults():
    # Explicitly passing a default value hashes like omitting it.
    assert trial_key("learning", {"n_packets": 10}, 0) == trial_key("learning", {}, 0)


def test_trial_key_of_an_int_equals_that_of_the_equal_float():
    """An int in a float field decodes to a float: one config, one cache entry."""
    assert trial_key("coexistence", {"burst_interval": 1}, 0) == trial_key(
        "coexistence", {"burst_interval": 1.0}, 0
    )


def test_trial_key_sensitive_to_config_seed_and_code_version():
    base = trial_key("learning", {"n_packets": 5}, seed=0)
    assert trial_key("learning", {"n_packets": 6}, seed=0) != base
    assert trial_key("learning", {"n_packets": 5}, seed=1) != base
    assert trial_key("learning", {"n_packets": 5}, seed=0,
                     code_version="other") != base


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("BICORD_SWEEP_CACHE", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"


# ----------------------------------------------------------------------
# Cache hit / miss / invalidation
# ----------------------------------------------------------------------
LEARN_SPEC = SweepSpec(
    experiment="learning",
    grid={"n_packets": (3, 5)},
    base={"n_bursts": 4},
    seeds=(0, 1),
)


def test_second_run_is_all_cache_hits(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run(LEARN_SPEC)
    assert (first.executed, first.cached_hits) == (4, 0)
    second = engine.run(LEARN_SPEC)
    assert (second.executed, second.cached_hits) == (0, 4)
    for a, b in zip(first.results, second.results):
        assert canonical_dumps(a) == canonical_dumps(b)


def test_config_change_invalidates_cache(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    engine.run(LEARN_SPEC)
    changed = SweepSpec(
        experiment="learning",
        grid={"n_packets": (3, 5)},
        base={"n_bursts": 4, "payload_bytes": 60},  # changed field => new keys
        seeds=(0, 1),
    )
    rerun = engine.run(changed)
    assert rerun.executed == 4 and rerun.cached_hits == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    spec = SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3})
    run = engine.run(spec)
    entry = engine._entry_path(run.records[0].key)
    entry.write_text("{not json", encoding="utf-8")
    rerun = engine.run(spec)
    assert rerun.executed == 1 and rerun.cached_hits == 0


def test_schema_bump_invalidates_entry(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    spec = SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3})
    run = engine.run(spec)
    entry = engine._entry_path(run.records[0].key)
    data = json.loads(entry.read_text(encoding="utf-8"))
    assert data["schema"] == CACHE_SCHEMA
    data["schema"] = CACHE_SCHEMA + 1
    entry.write_text(json.dumps(data), encoding="utf-8")
    rerun = engine.run(spec)
    assert rerun.executed == 1


def test_corrupt_entry_in_full_sweep_reexecutes_only_that_trial(tmp_path):
    """A torn cache write must not crash a sweep nor poison its siblings:
    the corrupt entry is re-executed, the rest are served from cache, and
    the re-executed result is bitwise-identical to the original."""
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run(LEARN_SPEC)
    assert first.executed == 4
    victim = engine._entry_path(first.records[1].key)
    victim.write_text('{"schema": ', encoding="utf-8")  # truncated mid-write
    rerun = engine.run(LEARN_SPEC)
    assert (rerun.executed, rerun.cached_hits) == (1, 3)
    for a, b in zip(first.results, rerun.results):
        assert canonical_dumps(a) == canonical_dumps(b)


def test_cache_store_leaves_no_temp_files(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    engine.run(SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3}))
    assert not list(tmp_path.rglob("*.tmp*"))


def test_clear_cache_removes_entries(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    engine.run(SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3}))
    assert engine.clear_cache() == 1
    assert engine.clear_cache() == 0


def test_clear_cache_sweeps_orphaned_temp_files(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    run = engine.run(SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3}))
    entry = engine._entry_path(run.records[0].key)
    orphan = entry.with_name(entry.name + ".tmp99999")  # writer died pre-rename
    orphan.write_text("{", encoding="utf-8")
    assert engine.clear_cache() == 1  # orphans are not counted as entries
    assert not orphan.exists()


def test_cache_disabled_always_executes(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path, cache=False)
    spec = SweepSpec("learning", base={"n_bursts": 3, "n_packets": 3})
    assert engine.run(spec).executed == 1
    assert engine.run(spec).executed == 1
    assert not any(tmp_path.rglob("*.json"))


# ----------------------------------------------------------------------
# Parallel execution
# ----------------------------------------------------------------------
def test_parallel_sweep_matches_serial_bitwise(tmp_path):
    """Acceptance: jobs=4 is bitwise-identical to jobs=1, per trial."""
    spec = SweepSpec(
        experiment="coexistence",
        grid={"location": ("A", "B")},
        base={"n_bursts": 4},
        seeds=(0, 1),
    )
    serial = SweepEngine(jobs=1, cache=False).run(spec)
    parallel = SweepEngine(jobs=4, cache=False).run(spec)
    assert [r.params for r in serial.records] == [r.params for r in parallel.records]
    assert [r.seed for r in serial.records] == [r.seed for r in parallel.records]
    for a, b in zip(serial.results, parallel.results):
        assert canonical_dumps(a) == canonical_dumps(b)
    assert parallel.jobs == 4 and serial.jobs == 1


def test_coexistence_sweep_rerun_hits_cache(tmp_path):
    """Acceptance: a 2-seed x 2-location coexistence sweep re-runs from cache."""
    spec = SweepSpec(
        experiment="coexistence",
        grid={"location": ("A", "B")},
        base={"n_bursts": 3},
        seeds=(0, 1),
    )
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    first = engine.run(spec)
    assert first.executed == 4
    second = engine.run(spec)
    assert second.executed == 0 and second.cached_hits == 4
    for a, b in zip(first.results, second.results):
        assert canonical_dumps(a) == canonical_dumps(b)


def test_cached_scenario_result_equals_the_fresh_run(tmp_path):
    """A cache entry keeps the result's dict order: ``mean_delay`` averages
    the links' delays in that order, so a reordered entry moves its last
    bit (54.27764341451602 fresh vs ...601 cached under sorted keys)."""
    spec = SweepSpec("scenario", base={"scenario": "smart-home", "max_events": 4000})
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    fresh = engine.run(spec)
    cached = engine.run(spec)
    assert (fresh.executed, cached.cached_hits) == (1, 1)
    assert list(cached.results[0].links) == list(fresh.results[0].links)
    assert cached.results[0].metrics() == fresh.results[0].metrics()


def test_progress_callback_streams_all_trials(tmp_path):
    seen = []
    engine = SweepEngine(
        jobs=1, cache_dir=tmp_path,
        progress=lambda record, done, total: seen.append((done, total, record.cached)),
    )
    engine.run(LEARN_SPEC)
    assert [d for d, _, _ in seen] == [1, 2, 3, 4]
    assert all(t == 4 for _, t, _ in seen)
    assert not any(cached for _, _, cached in seen)
    seen.clear()
    engine.run(LEARN_SPEC)
    assert all(cached for _, _, cached in seen)


def test_run_trials_rejects_reserved_params(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="seed"):
        engine.run_trials("learning", [{"seed": 3}])


def test_engine_rejects_bad_jobs():
    with pytest.raises(ValueError):
        SweepEngine(jobs=0)


def test_sweep_smoke_across_experiments(tmp_path):
    """Tier-1 smoke: tiny sweeps of two more experiments run end to end."""
    engine = SweepEngine(jobs=1, cache_dir=tmp_path)
    energy = engine.run(SweepSpec("energy", base={"n_bursts": 2}))
    assert energy.results[0].bicord_mj > 0
    ble = engine.run(SweepSpec(
        "ble", grid={"afh_enabled": (False,)}, base={"duration": 2.0},
    ))
    assert ble.results[0].ble_events > 0
