"""Campaign statistics: t critical values, summaries and aggregation.

Regression coverage for two real bugs: a scipy-less ``t_critical`` used to
return z=1.96 for *all* degrees of freedom (df=4 needs 2.776 — a 42% wider
interval), and ``MetricSummary.to_dict`` emitted ``n`` as an int inside a
payload declared ``Dict[str, float]`` with no typed way back from
``report.json``.  ``t_critical`` now takes one path, scipy or not; scipy,
where installed, is the oracle for its values.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys

import pytest

from repro.experiments import stats
from repro.experiments.stats import (
    _T95_TABLE,
    MetricSummary,
    aggregate_records,
    comparison_table,
    summarize,
    t_critical,
)
from repro.serialization import from_dict, to_dict

from .scipy_block import BlockScipy


def test_small_sample_critical_values_are_not_z():
    """The old fallback returned 1.96 for every df."""
    assert t_critical(1) == pytest.approx(12.706, abs=1e-3)
    assert t_critical(4) == pytest.approx(2.776, abs=1e-3)
    assert t_critical(10) == pytest.approx(2.228, abs=1e-3)
    assert t_critical(30) == pytest.approx(2.042, abs=1e-3)
    # Beyond the table the expansion carries on from it, down towards z.
    assert t_critical(31) == pytest.approx(2.0395134464, abs=1e-7)
    assert t_critical(10**6) == pytest.approx(1.959963984540054, abs=1e-5)


@pytest.mark.parametrize("df", list(range(1, 31)))
def test_t_table_pins_scipy_values(df):
    """The table holds scipy's own quantiles, to the bit."""
    scipy_stats = pytest.importorskip("scipy.stats")
    exact = float(scipy_stats.t.ppf(0.975, df))
    assert _T95_TABLE[df - 1] == exact
    assert t_critical(df) == exact


def test_expansion_matches_scipy_beyond_the_table():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df in range(31, 2001):
        exact = float(scipy_stats.t.ppf(0.975, df))
        assert abs(t_critical(df) - exact) <= 1e-7 * exact, df


def test_t_critical_is_the_same_with_scipy_blocked(monkeypatch):
    """A copy of the module loaded where no scipy import can succeed
    returns the same critical value for every df."""
    for name in [name for name in sys.modules if name.split(".")[0] == "scipy"]:
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(sys, "meta_path", [BlockScipy(), *sys.meta_path])
    spec = importlib.util.spec_from_file_location(
        "repro.experiments._stats_without_scipy", stats.__file__
    )
    blocked = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, blocked)  # for its dataclasses
    spec.loader.exec_module(blocked)
    dfs = range(1, 2001)
    assert [blocked.t_critical(df) for df in dfs] == [t_critical(df) for df in dfs]


def test_t_critical_invalid_df():
    assert math.isnan(t_critical(0))
    assert math.isnan(t_critical(-3))


def test_table_is_monotonic_towards_normal():
    assert all(a > b for a, b in zip(_T95_TABLE, _T95_TABLE[1:]))
    assert _T95_TABLE[-1] > 1.959963984540054


# ----------------------------------------------------------------------
# MetricSummary serialization round-trip
# ----------------------------------------------------------------------
def test_metric_summary_round_trips_typed_through_json():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    payload = json.loads(json.dumps(summary.to_dict()))
    assert payload["lo"] == summary.lo and payload["hi"] == summary.hi
    restored = from_dict(MetricSummary, json.loads(json.dumps(to_dict(summary))))
    assert restored == summary
    assert isinstance(restored.n, int)
    assert isinstance(restored.mean, float)


def test_ci_uses_t_not_z_for_small_samples():
    """df=4: the CI half-width must reflect t=2.776, not z=1.96."""
    summary = summarize([10.0, 12.0, 9.0, 11.0, 13.0])
    expected_t = t_critical(4)
    assert expected_t > 2.7
    assert summary.ci95 == pytest.approx(expected_t * summary.stderr)


def test_aggregate_records_summaries_round_trip():
    records = [
        ({"scheme": "bicord", "seed": s}, {"delivery": 0.9 + 0.01 * s})
        for s in range(4)
    ] + [
        ({"scheme": "ecc", "seed": s}, {"delivery": 0.7 + 0.01 * s})
        for s in range(4)
    ]
    report = aggregate_records(records)
    payload = {
        group: {name: to_dict(s) for name, s in metrics.items()}
        for group, metrics in report.items()
    }
    restored = {
        group: {
            name: from_dict(MetricSummary, p) for name, p in metrics.items()
        }
        for group, metrics in json.loads(json.dumps(payload)).items()
    }
    assert restored == report


# ----------------------------------------------------------------------
# Summaries and per-group aggregation
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
