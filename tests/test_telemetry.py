"""Tests for the telemetry subsystem: instruments, scoping, export, sweeps."""

import json
import logging

import pytest

from repro import telemetry
from repro.cli import main
from repro.context import build_context
from repro.experiments import SweepEngine, SweepSpec, run_experiment
from repro.log import configure as configure_logging, get_logger
from repro.serialization import to_dict
from repro.telemetry import (
    MetricsRegistry,
    NullRegistry,
    build_manifest,
    collect,
    export,
    merge_snapshots,
)


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
def test_counter_gauge_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.0)
    registry.gauge("g").set_max(1.0)  # lower: ignored
    registry.gauge("g").set_max(7.0)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == 5
    assert snap["gauges"]["g"] == 7.0


def test_histogram_buckets_and_overflow():
    registry = MetricsRegistry()
    hist = registry.histogram("h", (1.0, 2.0, 5.0))
    for value in (0.5, 1.5, 1.7, 4.0, 99.0):
        hist.observe(value)
    snap = registry.snapshot()["histograms"]["h"]
    assert snap["bounds"] == [1.0, 2.0, 5.0]
    assert snap["counts"] == [1, 2, 1, 1]  # last bucket = overflow
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(106.7)


def test_histogram_rejects_unsorted_bounds_and_redefinition():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("bad", (2.0, 1.0))
    registry.histogram("h", (1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h", (1.0, 3.0))


def test_span_timer_aggregates_wall_time():
    registry = MetricsRegistry()
    with registry.span("work"):
        pass
    with registry.span("work"):
        pass
    spans = registry.snapshot(spans=True)["spans"]
    assert spans["work"]["calls"] == 2
    assert spans["work"]["total_s"] >= 0.0


def test_snapshot_without_spans_is_deterministic_section_only():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.observe_span("work", 1.0)
    snap = registry.snapshot(spans=False)
    assert "spans" not in snap
    assert snap["counters"] == {"c": 1}


def test_merge_semantics():
    a = MetricsRegistry()
    a.counter("c").inc(2)
    a.gauge("g").set(3.0)
    a.histogram("h", (1.0,)).observe(0.5)
    a.observe_span("s", 1.0)
    b = MetricsRegistry()
    b.counter("c").inc(3)
    b.gauge("g").set(1.0)
    b.histogram("h", (1.0,)).observe(2.0)
    b.observe_span("s", 0.5)
    merged = merge_snapshots([a.snapshot(), None, b.snapshot()])
    assert merged["counters"]["c"] == 5  # counters add
    assert merged["gauges"]["g"] == 3.0  # gauges keep the max
    assert merged["histograms"]["h"]["counts"] == [1, 1]
    assert merged["spans"]["s"]["total_s"] == pytest.approx(1.5)
    assert merged["spans"]["s"]["calls"] == 2


def test_merge_rejects_mismatched_histogram_bounds():
    a = MetricsRegistry()
    a.histogram("h", (1.0,)).observe(0.5)
    b = MetricsRegistry()
    b.histogram("h", (2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        merge_snapshots([a.snapshot(), b.snapshot()])


def test_null_registry_is_inert_and_falsy():
    registry = NullRegistry()
    assert not registry
    assert not registry.enabled
    registry.counter("c").inc()
    registry.gauge("g").set_max(5.0)
    registry.histogram("h", (1.0,)).observe(2.0)
    with registry.span("s"):
        pass
    snap = registry.snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {}
    assert snap["histograms"] == {} and snap["spans"] == {}


# ----------------------------------------------------------------------
# Collection scoping
# ----------------------------------------------------------------------
def test_collect_scopes_active_registry():
    assert telemetry.active() is telemetry.NULL
    with collect() as outer:
        assert telemetry.active() is outer
        inner_registry = MetricsRegistry()
        with collect(inner_registry):
            assert telemetry.active() is inner_registry
        assert telemetry.active() is outer
    assert telemetry.active() is telemetry.NULL


def test_build_context_captures_active_registry():
    registry = MetricsRegistry()
    with collect(registry):
        ctx = build_context(seed=0)
    assert ctx.telemetry is registry
    outside = build_context(seed=0)
    assert outside.telemetry is telemetry.NULL


# ----------------------------------------------------------------------
# Experiment integration
# ----------------------------------------------------------------------
def test_coexistence_populates_registry():
    registry = MetricsRegistry()
    run_experiment("coexistence", n_bursts=5, seed=1, telemetry=registry)
    snap = registry.snapshot(spans=True)
    assert snap["counters"]["sim.events_executed"] > 0
    assert snap["counters"]["bicord.grants"] > 0
    assert snap["counters"]["detector.samples_seen"] > 0
    assert snap["gauges"]["sim.queue_hwm"] > 0
    assert snap["histograms"]["bicord.grant_ms"]["count"] > 0
    assert "coexist.sim" in snap["spans"]


def test_telemetry_off_results_identical():
    plain = run_experiment("coexistence", n_bursts=5, seed=2)
    collected = run_experiment(
        "coexistence", n_bursts=5, seed=2, telemetry=MetricsRegistry()
    )
    assert to_dict(plain) == to_dict(collected)


def test_telemetry_metrics_reproducible_across_runs():
    def snapshot():
        registry = MetricsRegistry()
        run_experiment("coexistence", n_bursts=5, seed=3, telemetry=registry)
        return registry.snapshot(spans=False)

    assert snapshot() == snapshot()


def test_signaling_reports_false_wakeups():
    registry = MetricsRegistry()
    run_experiment("signaling", n_salvos=5, seed=0, telemetry=registry)
    counters = registry.snapshot()["counters"]
    assert counters["detector.samples_seen"] > 0
    assert "detector.false_wakeups" in counters
    assert "detector.true_detections" in counters


def test_fault_counters_reach_registry():
    from repro.faults import FaultPlan

    registry = MetricsRegistry()
    run_experiment(
        "coexistence", n_bursts=8, seed=4,
        faults=FaultPlan(detection_fn_rate=0.5),
        telemetry=registry,
    )
    counters = registry.snapshot()["counters"]
    assert any(name.startswith("faults.") for name in counters)


# ----------------------------------------------------------------------
# Manifest + export
# ----------------------------------------------------------------------
def test_manifest_fields_and_fault_summary():
    from repro.faults import FaultPlan

    manifest = build_manifest(
        "coexistence",
        config={"scheme": "bicord"},
        seeds=[0, 1],
        faults=FaultPlan(detection_fn_rate=0.25),
        wall_time_s=1.5,
        metrics={"prr": 0.99},
    )
    data = manifest.to_dict()
    assert data["experiment"] == "coexistence"
    assert data["seeds"] == [0, 1]
    assert len(data["config_digest"]) == 64
    assert data["faults"]["detection_fn_rate"] == 0.25
    assert data["code_version"]
    assert data["metrics"] == {"prr": 0.99}


def test_jsonl_export_manifest_line_first(tmp_path):
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.observe_span("s", 0.5)
    path = tmp_path / "out.jsonl"
    lines = export(path, registry=registry, manifest=build_manifest("x"))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == 2
    assert rows[0]["type"] == "manifest"
    assert {"type": "counter", "name": "c", "value": 3} in rows


def test_csv_export(tmp_path):
    registry = MetricsRegistry()
    registry.histogram("h", (1.0,)).observe(0.5)
    path = tmp_path / "out.csv"
    export(path, registry=registry, manifest=build_manifest("x"))
    text = path.read_text()
    assert text.startswith("kind,name,field,value")
    assert "manifest,experiment,,x" in text
    assert "histogram,h,count,1" in text


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def _sweep_spec():
    return SweepSpec(
        experiment="coexistence",
        grid={"scheme": ("bicord",)},
        base={"n_bursts": 4},
        seeds=(0, 1),
    )


def test_sweep_records_carry_deterministic_metrics(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path, telemetry=True, quiet=True)
    run = engine.run(_sweep_spec())
    for record in run.records:
        assert record.metrics is not None
        assert "spans" not in record.metrics  # wall clock never cached
        assert record.metrics["counters"]["sim.events_executed"] > 0
    assert run.telemetry["counters"]["sweep.trials"] == 2
    assert run.telemetry["counters"]["sweep.executed"] == 2


def test_cached_sweep_rerun_reproduces_metric_values(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path, telemetry=True, quiet=True)
    first = engine.run(_sweep_spec())
    second = engine.run(_sweep_spec())
    assert second.cached_hits == 2
    firsts = {r.key: r.metrics for r in first.records}
    for record in second.records:
        assert record.metrics == firsts[record.key]


def test_pre_telemetry_cache_entry_is_a_miss_when_telemetry_on(tmp_path):
    plain = SweepEngine(jobs=1, cache_dir=tmp_path, telemetry=False, quiet=True)
    plain.run(_sweep_spec())
    # Every engine caches the snapshot now; plant entries written before it did.
    entries = sorted(tmp_path.glob("*/*.json"))
    assert len(entries) == 2
    for path in entries:
        data = json.loads(path.read_text(encoding="utf-8"))
        del data["metrics"]
        path.write_text(json.dumps(data), encoding="utf-8")
    assert plain.run(_sweep_spec()).cached_hits == 2  # still hits without telemetry
    collecting = SweepEngine(jobs=1, cache_dir=tmp_path, telemetry=True, quiet=True)
    run = collecting.run(_sweep_spec())
    assert run.cached_hits == 0  # metric-less entries re-execute
    assert all(record.metrics is not None for record in run.records)


def test_sweep_without_telemetry_has_no_snapshots(tmp_path):
    engine = SweepEngine(jobs=1, cache_dir=tmp_path, quiet=True)
    run = engine.run(_sweep_spec())
    assert run.telemetry is None
    assert all(record.metrics is None for record in run.records)


@pytest.fixture
def sweep_log_records():
    """Capture repro.sweep records regardless of propagate/configure state."""
    records = []

    class _Capture(logging.Handler):
        def emit(self, record):
            records.append(record)

    logger = logging.getLogger("repro.sweep")
    handler = _Capture(level=logging.DEBUG)
    old_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield records
    finally:
        logger.removeHandler(handler)
        logger.setLevel(old_level)


def test_sweep_progress_logs(tmp_path, sweep_log_records):
    engine = SweepEngine(
        jobs=1, cache_dir=tmp_path, quiet=False, progress_interval=0.0
    )
    engine.run(_sweep_spec())
    messages = [r.getMessage() for r in sweep_log_records]
    assert any("2/2 trials" in m for m in messages)


def test_sweep_quiet_suppresses_progress(tmp_path, sweep_log_records):
    engine = SweepEngine(
        jobs=1, cache_dir=tmp_path, quiet=True, progress_interval=0.0
    )
    engine.run(_sweep_spec())
    assert not [r for r in sweep_log_records if "trials" in r.getMessage()]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_coexist_metrics_out(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = main([
        "coexist", "--bursts", "4", "--seed", "5", "--metrics-out", str(path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "telemetry" in out
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["type"] == "manifest"
    assert rows[0]["experiment"] == "coexistence"
    assert rows[0]["seeds"] == [5]
    kinds = {row["type"] for row in rows[1:]}
    assert "counter" in kinds and "gauge" in kinds and "span" in kinds


def test_cli_sweep_metrics_out(tmp_path, capsys):
    path = tmp_path / "metrics.jsonl"
    code = main([
        "sweep", "--experiment", "coexistence", "--param", "n_bursts=4",
        "--seeds", "2", "--cache-dir", str(tmp_path / "cache"), "--quiet",
        "--metrics-out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows[0]["type"] == "manifest"
    counters = {r["name"]: r["value"] for r in rows if r["type"] == "counter"}
    assert counters["sweep.trials"] == 2


def test_cli_without_metrics_out_writes_nothing(tmp_path, capsys):
    code = main(["coexist", "--bursts", "4", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "telemetry" not in out
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Logging helper
# ----------------------------------------------------------------------
def test_log_configure_levels():
    import io

    stream = io.StringIO()
    configure_logging(verbosity=1, stream=stream, force=True)
    logger = get_logger("probe")
    logger.debug("debug-visible")
    assert "debug-visible" in stream.getvalue()
    stream = io.StringIO()
    configure_logging(quiet=True, stream=stream, force=True)
    logger.info("info-hidden")
    logger.warning("warn-visible")
    text = stream.getvalue()
    assert "info-hidden" not in text and "warn-visible" in text
    configure_logging(force=True)  # restore defaults for other tests


def test_log_handler_follows_stderr_after_capture(monkeypatch):
    import io
    import sys

    capture = io.StringIO()
    monkeypatch.setattr(sys, "stderr", capture)
    configure_logging(force=True)  # configured while stderr is captured
    capture.close()  # the capture ends, as after an in-process CLI test
    restored = io.StringIO()
    monkeypatch.setattr(sys, "stderr", restored)
    get_logger("probe").warning("after-capture")
    text = restored.getvalue()
    assert "after-capture" in text
    assert "Logging error" not in text
