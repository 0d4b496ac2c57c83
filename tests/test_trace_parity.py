"""Unstored trace kinds: counted exactly as stored ones, and never built.

A compiled run stores no trace records (``trace_kinds=frozenset()``), yet
its ``trace_digest`` hashes the per-kind counters.  So the per-frame call
sites count every event whether or not its kind is stored, and build a
record's fields only when it is.
"""

import dataclasses

import pytest

from repro import scenarios
from repro.phy.medium_fast import VectorMedium
from repro.sim.trace import TraceRecorder

#: The kinds recorded once per frame, transmission edge or reception.
PER_FRAME_KINDS = (
    "medium.tx_start",
    "medium.tx_end",
    "phy.rx_ok",
    "phy.rx_lost",
    "wifi.tx",
    "wifi.delivered",
)

SCHEMES = ("bicord", "ecc", "csma", "slow-ctc", "predictive")
HORIZON = 0.5


def _specs():
    specs = [(f"office-{s}", scenarios.get_scenario("office", scheme=s)) for s in SCHEMES]
    specs.append(("campus-roaming", scenarios.get_scenario("campus-roaming")))
    # Enough radios for the vector kernel, whose record sites are its own.
    grid = scenarios.get_scenario("grid", n_zigbee_links=18, n_wifi_pairs=4, duration=0.1)
    specs.append(("grid", dataclasses.replace(grid, grace=0.0)))
    return specs


def _run(spec, trace_kinds):
    compiled = scenarios.compile_scenario(spec, seed=3, trace_kinds=trace_kinds)
    result = compiled.run(until=min(HORIZON, spec.duration))
    return compiled.ctx, result


@pytest.mark.parametrize("name,spec", _specs(), ids=[name for name, _ in _specs()])
def test_storing_run_counts_what_the_default_run_counts(name, spec):
    stored_ctx, stored = _run(spec, None)
    bare_ctx, bare = _run(spec, frozenset())
    assert stored_ctx.trace.counters == bare_ctx.trace.counters
    assert stored.trace_digest == bare.trace_digest
    assert bare_ctx.trace.records == []
    trace = stored_ctx.trace
    # One stored record per counted event, kind by kind.
    assert {kind: len(trace.of_kind(kind)) for kind in trace.counters} == trace.counters
    assert len(trace.records) == sum(trace.counters.values())
    for kind in ("medium.tx_start", "medium.tx_end", "phy.rx_ok", "wifi.tx"):
        assert trace.counters.get(kind, 0) > 0, kind
    if name == "grid":
        assert isinstance(stored_ctx.medium, VectorMedium)


@pytest.mark.parametrize(
    "name,kinds",
    [
        # The loop kernel: every per-frame site fires in this run.
        ("office-csma", PER_FRAME_KINDS),
        # The vector kernel's own sites.
        ("grid", ("medium.tx_start", "medium.tx_end")),
    ],
    ids=["office-csma", "grid"],
)
def test_unstored_per_frame_kinds_never_reach_record(monkeypatch, name, kinds):
    spec = dict(_specs())[name]
    calls = {}
    original = TraceRecorder.record

    def counting_record(self, time, kind, **fields):
        calls[kind] = calls.get(kind, 0) + 1
        return original(self, time, kind, **fields)

    monkeypatch.setattr(TraceRecorder, "record", counting_record)
    ctx, _ = _run(spec, frozenset())
    assert all(ctx.trace.counters.get(kind, 0) > 0 for kind in kinds)
    assert {kind: calls.get(kind, 0) for kind in PER_FRAME_KINDS} == dict.fromkeys(
        PER_FRAME_KINDS, 0
    )


def test_note_counts_and_store_appends():
    trace = TraceRecorder(enabled_kinds={"kept"})
    assert trace.note("kept") is True
    trace.store(1.0, "kept", a=1)
    assert trace.note("dropped") is False
    assert trace.counters == {"kept": 1, "dropped": 1}
    assert [r.fields for r in trace.of_kind("kept")] == [{"a": 1}]
    assert trace.of_kind("dropped") == []
    assert TraceRecorder().note("anything") is True
