"""Tests for RNG streams, the trace recorder, and generator processes."""

import pytest

from repro.sim import rng
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder


# ----------------------------------------------------------------------
# RandomStreams
# ----------------------------------------------------------------------
def test_same_seed_same_draws():
    a = RandomStreams(seed=42).stream("x")
    b = RandomStreams(seed=42).stream("x")
    assert list(a.random(10)) == list(b.random(10))


def test_different_seeds_differ():
    a = RandomStreams(seed=1).stream("x")
    b = RandomStreams(seed=2).stream("x")
    assert list(a.random(10)) != list(b.random(10))


def test_different_names_are_independent():
    streams = RandomStreams(seed=7)
    a = list(streams.stream("a").random(10))
    b = list(streams.stream("b").random(10))
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(seed=7)
    assert streams.stream("x") is streams.stream("x")


def test_new_consumer_does_not_perturb_existing_stream():
    """Adding a stream must not change what another stream produces."""
    s1 = RandomStreams(seed=5)
    first = list(s1.stream("mac").random(5))
    s2 = RandomStreams(seed=5)
    s2.stream("something-new").random(100)  # interleaved consumer
    second = list(s2.stream("mac").random(5))
    assert first == second


def test_fork_changes_draws_deterministically():
    base = RandomStreams(seed=3)
    f1 = base.fork("rep-1").stream("x").random(5)
    f2 = RandomStreams(seed=3).fork("rep-1").stream("x").random(5)
    assert list(f1) == list(f2)
    assert list(RandomStreams(seed=3).fork("rep-2").stream("x").random(5)) != list(f1)


def test_fork_of_seed_zero_does_not_collide_with_root_seed():
    """Regression: the old affine fork (seed*p + hash(salt)) made
    ``RandomStreams(0).fork(salt)`` land exactly on the root family whose
    seed is ``hash(salt) % 2**63`` — supposedly independent repetitions
    shared every stream."""
    from repro.sim.rng import _stable_hash

    forked = RandomStreams(seed=0).fork("rep-1")
    aliased = RandomStreams(seed=_stable_hash("rep-1") % (2**63))
    assert forked.seed != aliased.seed
    assert list(forked.stream("x").random(5)) != list(aliased.stream("x").random(5))


def test_fork_namespace_disjoint_from_stream_names():
    """fork('a') must not correlate with stream('a') draws of any family."""
    base = RandomStreams(seed=11)
    direct = list(base.stream("rep-1").random(5))
    forked = list(base.fork("rep-1").stream("rep-1").random(5))
    assert direct != forked


def test_negative_seed_is_rejected_with_its_value():
    with pytest.raises(ValueError, match="-1"):
        RandomStreams(seed=-1)


_LINK_NAMES = ["fading/A->F", "fading/F->A", "shadowing/A|F", "shadowing/E|ZS"]


def _draws(generators):
    return [list(g.random(4)) for g in generators]


def _reference_draws(seed, names):
    return _draws(RandomStreams(seed=seed).stream(n) for n in names)


@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_new_streams_draw_what_stream_draws(seed):
    streams = RandomStreams(seed=seed)
    assert rng._fast_seeding_ok()
    assert _draws(streams.new_streams(_LINK_NAMES)) == _reference_draws(seed, _LINK_NAMES)
    assert streams._streams == {}  # neither read nor written


def test_new_streams_route_short_hashes_to_the_reference_path(monkeypatch):
    real_hash = rng._stable_hash
    monkeypatch.setattr(
        rng, "_stable_hash", lambda name: 12345 if name == "fading/F->A" else real_hash(name)
    )
    assert _draws(RandomStreams(seed=7).new_streams(_LINK_NAMES)) == _reference_draws(
        7, _LINK_NAMES
    )


def test_new_streams_reference_path_matches(monkeypatch):
    monkeypatch.setattr(rng, "_FAST_SEEDING_OK", False)
    assert _draws(RandomStreams(seed=7).new_streams(_LINK_NAMES)) == _reference_draws(
        7, _LINK_NAMES
    )


def test_new_streams_one_name():
    assert _draws(RandomStreams(seed=7).new_streams(["fading/A->F"])) == _reference_draws(
        7, ["fading/A->F"]
    )


def test_new_streams_returns_distinct_generators():
    """One shared seeding shim per call must not alias the generators."""
    gens = RandomStreams(seed=7).new_streams(_LINK_NAMES)
    assert len({id(g) for g in gens}) == len(gens)
    assert len({id(g.bit_generator) for g in gens}) == len(gens)
    states = [g.bit_generator.state["state"]["state"] for g in gens]
    assert len(set(states)) == len(states)


# ----------------------------------------------------------------------
# TraceRecorder
# ----------------------------------------------------------------------
def test_trace_records_and_counts():
    trace = TraceRecorder()
    trace.record(1.0, "tx", device="a")
    trace.record(2.0, "tx", device="b")
    trace.record(3.0, "rx", device="a")
    assert trace.count("tx") == 2
    assert [r["device"] for r in trace.of_kind("tx")] == ["a", "b"]


def test_trace_kind_filter_keeps_counters():
    trace = TraceRecorder(enabled_kinds={"rx"})
    trace.record(1.0, "tx", device="a")
    trace.record(2.0, "rx", device="a")
    assert trace.count("tx") == 1
    assert trace.of_kind("tx") == []
    assert len(trace.of_kind("rx")) == 1


def test_trace_between_and_where():
    trace = TraceRecorder()
    for t in [0.5, 1.5, 2.5]:
        trace.record(t, "tick", n=t)
    assert [r.time for r in trace.between(1.0, 3.0)] == [1.5, 2.5]
    assert len(list(trace.where(lambda r: r["n"] > 1.0))) == 2


def test_trace_record_get_and_clear():
    trace = TraceRecorder()
    trace.record(1.0, "x", a=1)
    record = trace.records[0]
    assert record["a"] == 1
    assert record.get("missing", "default") == "default"
    trace.clear()
    assert trace.records == [] and trace.count("x") == 0


# ----------------------------------------------------------------------
# Process
# ----------------------------------------------------------------------
def test_process_runs_steps_at_yielded_delays():
    sim = Simulator()
    times = []

    def gen():
        for _ in range(3):
            times.append(sim.now)
            yield 1.0

    Process(sim, gen())
    sim.run()
    assert times == [0.0, 1.0, 2.0]


def test_process_finishes_on_return():
    sim = Simulator()

    def gen():
        yield 1.0

    process = Process(sim, gen())
    sim.run()
    assert process.finished
    assert not process.running


def test_process_stop_cancels_future_steps():
    sim = Simulator()
    ticks = []

    def gen():
        while True:
            ticks.append(sim.now)
            yield 1.0

    process = Process(sim, gen())
    sim.schedule(2.5, process.stop)
    sim.run(until=10.0)
    assert ticks == [0.0, 1.0, 2.0]
    assert process.finished


def test_process_rejects_bad_yields():
    sim = Simulator()

    def bad_type():
        yield "soon"

    Process(sim, bad_type())
    with pytest.raises(TypeError):
        sim.run()

    sim2 = Simulator()

    def negative():
        yield -1.0

    Process(sim2, negative())
    with pytest.raises(ValueError):
        sim2.run()


def test_process_start_delay():
    sim = Simulator()
    times = []

    def gen():
        times.append(sim.now)
        yield 1.0

    Process(sim, gen(), start_delay=5.0)
    sim.run()
    assert times == [5.0]
