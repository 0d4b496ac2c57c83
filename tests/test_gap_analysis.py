"""Tests for the idle-gap analysis module."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    GapStatistics,
    analyze_trace,
    busy_intervals_from_trace,
    gaps_between,
    merge_intervals,
)
from repro.sim.trace import TraceRecorder


# ----------------------------------------------------------------------
# Interval merging
# ----------------------------------------------------------------------
def test_merge_disjoint_intervals():
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]


def test_merge_overlapping_and_touching():
    assert merge_intervals([(0, 2), (1, 3), (3, 4)]) == [(0, 4)]


def test_merge_unsorted_input():
    assert merge_intervals([(5, 6), (0, 1)]) == [(0, 1), (5, 6)]


def test_merge_drops_empty_intervals():
    assert merge_intervals([(1, 1), (2, 1)]) == []


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 100)), max_size=30))
def test_merge_output_is_disjoint_and_ordered(raw):
    intervals = [(min(a, b), max(a, b)) for a, b in raw]
    merged = merge_intervals(intervals)
    for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
        assert e1 < s2
    # Total covered length never shrinks below any single input interval.
    covered = sum(e - s for s, e in merged)
    for s, e in intervals:
        assert covered >= (e - s) - 1e-9


# ----------------------------------------------------------------------
# Gap extraction
# ----------------------------------------------------------------------
def test_gaps_simple():
    busy = [(1.0, 2.0), (3.0, 4.0)]
    assert gaps_between(busy, 0.0, 5.0) == [1.0, 1.0, 1.0]


def test_gaps_busy_covers_everything():
    assert gaps_between([(0.0, 10.0)], 0.0, 10.0) == []


def test_gaps_empty_channel():
    assert gaps_between([], 0.0, 4.0) == [4.0]


def test_gaps_clip_to_window():
    busy = [(-5.0, 1.0), (9.0, 20.0)]
    assert gaps_between(busy, 0.0, 10.0) == [8.0]


def test_gaps_invalid_window():
    with pytest.raises(ValueError):
        gaps_between([], 3.0, 3.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)), max_size=20))
def test_gaps_plus_busy_equals_window(raw):
    busy = merge_intervals([(min(a, b), max(a, b)) for a, b in raw])
    window = (0.0, 12.0)
    gaps = gaps_between(busy, *window)
    busy_inside = sum(
        max(0.0, min(e, window[1]) - max(s, window[0])) for s, e in busy
    )
    assert sum(gaps) + busy_inside == pytest.approx(window[1] - window[0])


# ----------------------------------------------------------------------
# Statistics and the trace pipeline
# ----------------------------------------------------------------------
def test_statistics_usable_fraction():
    stats = GapStatistics.from_gaps([1.0, 1.0, 8.0], need=5.0)
    assert stats.n_gaps == 3
    assert stats.total_idle == pytest.approx(10.0)
    assert stats.usable_fraction == pytest.approx(0.8)
    assert stats.longest == 8.0


def test_statistics_empty():
    stats = GapStatistics.from_gaps([], need=1.0)
    assert stats.n_gaps == 0
    assert stats.usable_fraction == 0.0


def test_trace_pipeline():
    trace = TraceRecorder()
    trace.record(1.0, "medium.tx_start", source="E", technology="wifi",
                 duration=1.0, power_dbm=20.0)
    trace.record(4.0, "medium.tx_start", source="E", technology="wifi",
                 duration=2.0, power_dbm=20.0)
    trace.record(2.5, "medium.tx_start", source="Z", technology="zigbee",
                 duration=0.5, power_dbm=0.0)
    busy = busy_intervals_from_trace(trace, technologies=["wifi"])
    assert busy == [(1.0, 2.0), (4.0, 6.0)]
    stats = analyze_trace(trace, 0.0, 8.0, need=1.5)
    assert stats.n_gaps == 3  # [0,1], [2,4], [6,8]
    assert stats.usable_fraction == pytest.approx(4.0 / 5.0)


def test_saturated_wifi_leaves_no_usable_gaps():
    """The paper's workload: gaps almost never fit a ZigBee exchange."""
    from .helpers import office_devices
    from repro.traffic import WifiPacketSource

    office = office_devices(seed=1, trace_kinds={"medium.tx_start"})
    cal = office.calibration
    WifiPacketSource(office.ctx, office.wifi_sender.mac, "F",
                     payload_bytes=cal.wifi_payload_bytes,
                     interval=cal.wifi_interval)
    office.ctx.sim.run(until=2.0)
    exchange_need = 4.5e-3  # one 50 B ZigBee packet exchange
    stats = analyze_trace(office.ctx.trace, 0.1, 2.0, need=exchange_need)
    assert stats.usable_fraction < 0.1
    assert stats.p90 < exchange_need
