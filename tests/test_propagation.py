"""Tests for propagation: path loss, shadowing, fading."""

import copy
import functools
import gc
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.context import VECTOR_MEDIUM_MIN_RADIOS
from repro.phy.medium import Medium
from repro.phy.medium_fast import VectorMedium
from repro.phy.propagation import Channel, FadingModel, PathLossModel, Position
from repro.scenarios import compile_scenario, get_scenario
from repro.sim import rng
from repro.sim.rng import RandomStreams


def make_channel(shadowing=0.0, fading=0.0, seed=1, **pl_kwargs):
    return Channel(
        PathLossModel(**pl_kwargs),
        FadingModel(shadowing_sigma_db=shadowing, fading_sigma_db=fading),
        RandomStreams(seed=seed),
    )


def test_position_distance():
    assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)
    assert Position(1, 1).distance_to(Position(1, 1)) == 0.0


def test_position_moved_is_new_object():
    p = Position(1.0, 2.0)
    q = p.moved(0.5, -0.5)
    assert (q.x, q.y) == (1.5, 1.5)
    assert (p.x, p.y) == (1.0, 2.0)


def test_path_loss_reference_point():
    model = PathLossModel(pl0_db=40.0, exponent=3.0)
    assert model.loss_db(1.0) == pytest.approx(40.0)
    assert model.loss_db(10.0) == pytest.approx(70.0)


def test_path_loss_clamps_small_distances():
    model = PathLossModel(min_distance_m=0.3)
    assert model.loss_db(0.0) == model.loss_db(0.3)
    assert model.loss_db(0.1) == model.loss_db(0.3)


@given(
    d1=st.floats(min_value=0.5, max_value=100.0),
    d2=st.floats(min_value=0.5, max_value=100.0),
)
def test_path_loss_monotonic_in_distance(d1, d2):
    model = PathLossModel()
    if d1 < d2:
        assert model.loss_db(d1) <= model.loss_db(d2)


def test_deterministic_channel_rx_power():
    channel = make_channel()
    rx = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(10, 0))
    assert rx == pytest.approx(-70.0)  # 40 + 30*log10(10)
    assert channel.fading_draws("a", ("b",), 1)[0, 0] == 0.0


def test_shadowing_is_static_per_link_and_symmetric():
    channel = make_channel(shadowing=4.0)
    p1 = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))
    p2 = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))
    assert p1 == p2  # static
    forward = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))
    reverse = channel.mean_rx_power_dbm(0.0, "b", Position(5, 0), "a", Position(0, 0))
    assert forward == pytest.approx(reverse)  # reciprocity


def test_shadowing_differs_across_links():
    channel = make_channel(shadowing=4.0)
    ab = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))
    ac = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "c", Position(5, 0))
    assert ab != ac


def test_fading_varies_per_frame_with_fixed_mean():
    channel = make_channel(fading=3.0)
    draws = {float(channel.fading_draws("a", ("b",), 1)[0, 0]) for _ in range(20)}
    assert len(draws) > 1
    mean = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))
    assert mean == channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))


def test_zero_sigma_channel_is_fully_deterministic():
    channel = make_channel()
    assert channel.fading_draws("a", ("b",), 4).tolist() == [[0.0] * 4]

    def rx_power():
        mean = channel.mean_rx_power_dbm(10.0, "a", Position(0, 0), "b", Position(2, 0))
        return mean + float(channel.fading_draws("a", ("b",), 1)[0, 0])

    assert rx_power() == rx_power()


def test_same_seed_reproduces_shadowing():
    c1 = make_channel(shadowing=4.0, seed=9)
    c2 = make_channel(shadowing=4.0, seed=9)
    assert c1.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0)) == \
        c2.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(5, 0))


def test_mobility_changes_distance_term_not_shadowing():
    channel = make_channel(shadowing=4.0)
    near = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(2, 0))
    far = channel.mean_rx_power_dbm(0.0, "a", Position(0, 0), "b", Position(8, 0))
    expected_delta = channel.path_loss.loss_db(8.0) - channel.path_loss.loss_db(2.0)
    assert near - far == pytest.approx(expected_delta)


# ----------------------------------------------------------------------
# Link streams: the channel keeps their state, ``RandomStreams`` none
# ----------------------------------------------------------------------
_KERNEL_RUNS = [
    ("grid", {"n_zigbee_links": VECTOR_MEDIUM_MIN_RADIOS // 2, "n_wifi_pairs": 1},
     VectorMedium),
    ("office", {}, Medium),
]


def _live_generators():
    gc.collect()
    return [o for o in gc.get_objects() if type(o) is np.random.Generator]


def _run_without_link_generators(name, params, kernel):
    """Run ``name`` for 0.05 s; check it left no per-link generator alive."""
    before = _live_generators()
    compiled = compile_scenario(get_scenario(name, **params), seed=3)
    compiled.run(until=0.05)
    ctx = compiled.ctx
    assert type(ctx.medium) is kernel
    assert not [k for k in ctx.streams._streams if k.startswith(("shadowing/", "fading/"))]
    known = {id(g) for g in before}
    made = [g for g in _live_generators() if id(g) not in known]
    links = sum(len(table) // 4 for table in ctx.channel._fading_states.values())
    assert links > len(ctx.streams._streams)
    # The named streams and the channel's one shared generator, whatever
    # the link count.
    assert len(made) == len(ctx.streams._streams) + 1
    return ctx


@pytest.mark.parametrize("name, params, kernel", _KERNEL_RUNS)
def test_link_streams_are_not_resident(name, params, kernel):
    _run_without_link_generators(name, params, kernel)


def test_shadowing_streams_are_dropped_after_their_draw():
    for name, params, kernel in _KERNEL_RUNS:
        ctx = _run_without_link_generators(name, params, kernel)
        cache = ctx.channel._shadowing_cache
        # Only pairs some link reads: no row seeds a source's pair with itself.
        assert cache and not [pair for pair in cache if pair[0] == pair[1]]
        sigma = ctx.channel.fading.shadowing_sigma_db
        for a, b in sorted(cache)[:10]:
            stream = RandomStreams(seed=ctx.streams.seed).stream(f"shadowing/{a}|{b}")
            assert cache[(a, b)] == stream.normal(0.0, sigma)


def _check_stored_fading_state(seed, reference_seeding, state_copy, monkeypatch):
    # The verified replications and in-place state copy, or numpy's own
    # seeding (``reference_seeding``) and the state dict (``state_copy``
    # False).
    if reference_seeding:
        monkeypatch.setattr(rng, "_seeding_ok", lambda batch=False: False)
    else:
        assert rng._seeding_ok()
    if state_copy is False:
        monkeypatch.setattr(rng, "_state_copy_ok", lambda: False)
    else:
        assert rng._state_copy_ok()
    sigma = 2.5
    channel = make_channel(fading=sigma, seed=seed)
    rows = {"A": ["F", "B", "C"], "F": ["A", "B"], "B": ["A"]}
    got = {(tx, rx): [] for tx, rxs in rows.items() for rx in rxs}
    for step, size in enumerate([1, 16, 5, 16, 3, 64, 2]):
        if step == 3:
            rows["A"].append("late")  # a fresh link in a row of stored ones
            got[("A", "late")] = []
        for tx, rxs in rows.items():
            order = rxs[::-1] if step % 2 else rxs
            block = channel.fading_draws(tx, order, size)
            assert block.shape == (len(rxs), size)
            for rx, values in zip(order, block.tolist()):
                got[(tx, rx)].extend(values)
            # A block of one between blocks, for one link of the row.
            rx = rxs[step % len(rxs)]
            got[(tx, rx)].append(float(channel.fading_draws(tx, (rx,), 1)[0, 0]))
    reference = RandomStreams(seed=seed)
    for (tx, rx), values in got.items():
        stream = reference.stream(f"fading/{tx}->{rx}")
        assert values == stream.normal(0.0, sigma, len(values)).tolist(), (tx, rx)


@pytest.mark.parametrize(
    "seed, reference_seeding", [(0, False), (7, False), (2**63 - 1, False), (7, True)]
)
def test_stored_fading_state_continues_each_stream(seed, reference_seeding, monkeypatch):
    """Blocks of mixed sizes, blocks of one between them, links seeded in
    batches and alone: every value is the link stream's next scalar draw,
    loaded and stored through the verified in-place state copy."""
    _check_stored_fading_state(seed, reference_seeding, None, monkeypatch)


@pytest.mark.parametrize("seed, reference_seeding", [(0, False), (7, True)])
def test_stored_fading_state_continues_through_the_state_dict(
    seed, reference_seeding, monkeypatch
):
    """The same streams when the state copy is off: the ``state`` dict path."""
    _check_stored_fading_state(seed, reference_seeding, False, monkeypatch)


_WRONG_LAYOUTS = {
    "reversed-words": lambda real, bits: real(bits)[::-1],
    "detached-buffer": lambda real, bits: memoryview(array("Q", [0] * 4)),
}


@pytest.mark.parametrize("layout", sorted(_WRONG_LAYOUTS))
def test_a_wrong_state_layout_falls_back_to_the_state_dict(layout, monkeypatch):
    real = rng._struct_words
    monkeypatch.setattr(rng, "_struct_words", lambda bits: _WRONG_LAYOUTS[layout](real, bits))
    # A fresh once-per-process check, so the probe's verdict ends with the test.
    fresh_check = functools.lru_cache()(rng._state_copy_ok.__wrapped__)
    monkeypatch.setattr(rng, "_state_copy_ok", fresh_check)
    assert not rng._state_copy_ok()
    assert isinstance(rng.state_slot(np.random.PCG64(0)), rng._StateDict)
    channel = make_channel(shadowing=2.0, fading=2.5, seed=7)
    first = channel.fading_draws("a", ["b", "c"], 5)
    again = channel.fading_draws("a", ["c", "b"], 3)
    reference = RandomStreams(seed=7)
    for k, rx in enumerate(["b", "c"]):
        expected = reference.stream(f"fading/a->{rx}").normal(0.0, 2.5, 8).tolist()
        assert first[k].tolist() + again[1 - k].tolist() == expected
    shadow = reference.stream("shadowing/a|b").normal(0.0, 2.0)
    assert channel.ensure_shadowing("b", ["a"]) == [shadow]


def test_channel_copies_draw_through_their_own_generator():
    """A deep copy of a channel, or a second channel, loads its link states
    into its own generator, never into another channel's."""
    sigma = 2.5
    channel = make_channel(fading=sigma, seed=7)
    first = channel.fading_draws("x", ["y", "z"], 3)
    copied = copy.deepcopy(channel)
    other = make_channel(fading=sigma, seed=7)
    assert copied._fading_gen.bit_generator is not channel._fading_gen.bit_generator
    before = channel._fading_gen.bit_generator.state
    copied_block = copied.fading_draws("x", ["y", "z"], 4)
    other_block = other.fading_draws("x", ["z", "y"], 7)
    other.ensure_shadowing("x", ["y"])
    assert channel._fading_gen.bit_generator.state == before
    block = channel.fading_draws("x", ["y", "z"], 4)
    assert block.tolist() == copied_block.tolist()
    reference = RandomStreams(seed=7)
    for k, rx in enumerate(["y", "z"]):
        expected = reference.stream(f"fading/x->{rx}").normal(0.0, sigma, 7).tolist()
        assert first[k].tolist() + block[k].tolist() == expected
        assert other_block[1 - k].tolist() == expected


@pytest.mark.parametrize(
    "name, params, kernel",
    [("grid", {"n_zigbee_links": 20, "n_wifi_pairs": 2}, VectorMedium),
     ("office", {}, Medium)],
)
def test_no_link_bit_generator_is_built(name, params, kernel, monkeypatch):
    """Only the named streams and the channel's shared generator build a
    PCG64, however many links a run seeds and draws."""
    assert rng._seeding_ok() and rng._seeding_ok(True) and rng._state_copy_ok()
    built = []
    real = np.random.PCG64

    def counted(*args, **kwargs):
        built.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "PCG64", counted)
    compiled = compile_scenario(get_scenario(name, **params), seed=3)
    compiled.run(until=0.05)
    ctx = compiled.ctx
    assert type(ctx.medium) is kernel
    if kernel is VectorMedium:
        assert len(ctx.medium.radios) == 44
    links = sum(len(table) // 4 for table in ctx.channel._fading_states.values())
    assert links + len(ctx.channel._shadowing_cache) > len(ctx.streams._streams)
    assert len(built) == len(ctx.streams._streams) + 1
