"""Tests for RNG streams, the trace recorder, and generator processes."""

import numpy as np
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


def test_negative_seed_is_rejected_with_its_value():
    with pytest.raises(ValueError, match="-1"):
        RandomStreams(seed=-1)


_LINK_NAMES = ["fading/A->F", "fading/F->A", "shadowing/A|F", "shadowing/E|ZS"]
#: Batch sizes on either side of the vectorized-seeding crossover and at it.
_BATCH_SIZES = [1, rng._BATCH_MIN - 1, rng._BATCH_MIN, rng._BATCH_MIN + 1, 64]


def _names(size):
    return (_LINK_NAMES + [f"fading/n{j}->m{j}" for j in range(size)])[:size]


def _pcg64_words(seed, names):
    """(state lo, state hi, inc lo, inc hi) of numpy's own seeding of each name."""
    out = []
    for name in names:
        seq = np.random.SeedSequence(seed, spawn_key=(rng._stable_hash(name),))
        state = np.random.PCG64(seq).state["state"]
        s, inc = state["state"], state["inc"]
        out.append([s % 2**64, s >> 64, inc % 2**64, inc >> 64])
    return out


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts the vectorized seeding batches taken (after the self checks)."""
    assert rng._seeding_ok() and rng._seeding_ok(True)
    calls = []
    real = rng._batch_seed_words

    def counted(entropy, hashes):
        calls.append(len(hashes))
        return real(entropy, hashes)

    monkeypatch.setattr(rng, "_batch_seed_words", counted)
    return calls


@pytest.mark.parametrize("size", _BATCH_SIZES)
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1])
def test_initial_states_match_pcg64_seeding(seed, size, batch_calls):
    streams = RandomStreams(seed=seed)
    names = _names(size)
    words = streams.initial_states(names)
    assert words.dtype == np.uint64 and words.shape == (size, 4)
    assert words.tolist() == _pcg64_words(seed, names)
    assert batch_calls == ([size] if size >= rng._BATCH_MIN else [])
    assert streams._streams == {}  # neither read nor written


def test_initial_states_route_short_hashes_one_at_a_time(monkeypatch, batch_calls):
    names = _names(rng._BATCH_MIN + 1)
    short = {names[1]: 12345, names[2]: 0}
    real_hash = rng._stable_hash
    monkeypatch.setattr(rng, "_stable_hash", lambda name: short.get(name) or real_hash(name))
    words = RandomStreams(seed=7).initial_states(names)
    assert words.tolist() == _pcg64_words(7, names)
    assert batch_calls == []


@pytest.mark.parametrize("size", [1, rng._BATCH_MIN + 1])
def test_initial_states_reference_path_matches(size, monkeypatch, batch_calls):
    monkeypatch.setattr(rng, "_seeding_ok", lambda batch=False: False)
    names = _names(size)
    assert RandomStreams(seed=7).initial_states(names).tolist() == _pcg64_words(7, names)
    assert batch_calls == []


def test_initial_states_one_name():
    words = RandomStreams(seed=7).initial_states(["fading/A->F"])
    assert words.shape == (1, 4)
    assert words.tolist() == _pcg64_words(7, ["fading/A->F"])
    assert RandomStreams(seed=7).initial_states([]).shape == (0, 4)


@pytest.mark.parametrize("state_copy", [None, False])
@pytest.mark.parametrize("size", [1, rng._BATCH_MIN + 1])
def test_initial_states_draw_what_stream_draws(size, state_copy, monkeypatch):
    """Loaded into one shared generator, each row draws its stream's values."""
    # None takes the verified in-place state copy; False forces the state dict.
    if state_copy is None:
        assert rng._state_copy_ok()
    else:
        monkeypatch.setattr(rng, "_state_copy_ok", lambda: False)
    names = _names(size)
    words = RandomStreams(seed=7).initial_states(names)
    gen = np.random.Generator(np.random.PCG64(0))
    reference = RandomStreams(seed=7)
    for name, row in zip(names, words):
        slot = rng.state_slot(gen.bit_generator)
        slot[:] = memoryview(row).cast("B").cast("Q")
        assert list(gen.random(4)) == list(reference.stream(name).random(4))


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
