"""Tests for the SimContext factory."""

from repro import SimContext, build_context
from repro.context import VECTOR_MEDIUM_MIN_RADIOS
from repro.phy.medium import Medium
from repro.phy.medium_fast import VectorMedium
from repro.phy.propagation import FadingModel, PathLossModel


def test_build_context_wires_everything():
    ctx = build_context(seed=5)
    assert ctx.sim is not None
    assert ctx.medium.sim is ctx.sim
    assert ctx.medium.channel is ctx.channel
    assert ctx.streams.seed == 5
    assert ctx.now == 0.0


def test_custom_models_are_used():
    ctx = build_context(
        seed=1,
        path_loss=PathLossModel(pl0_db=50.0, exponent=2.0),
        fading=FadingModel(shadowing_sigma_db=0.0, fading_sigma_db=0.0),
    )
    assert ctx.channel.path_loss.pl0_db == 50.0
    assert ctx.channel.fading.fading_sigma_db == 0.0


def test_trace_kinds_filtering():
    stores_all = build_context(seed=1, trace_kinds=None)
    stores_none = build_context(seed=1, trace_kinds=set())
    stores_all.trace.record(0.0, "x", a=1)
    stores_none.trace.record(0.0, "x", a=1)
    assert len(stores_all.trace.records) == 1
    assert len(stores_none.trace.records) == 0
    assert stores_none.trace.count("x") == 1  # counters always on


def test_now_tracks_simulator():
    ctx = build_context(seed=2)
    ctx.sim.schedule(1.0, lambda: None)
    ctx.sim.run()
    assert ctx.now == 1.0


def test_medium_follows_the_radio_count():
    assert type(build_context(seed=1).medium) is Medium
    below = build_context(seed=1, n_radios=VECTOR_MEDIUM_MIN_RADIOS - 1)
    assert type(below.medium) is Medium
    at = build_context(seed=1, n_radios=VECTOR_MEDIUM_MIN_RADIOS)
    assert type(at.medium) is VectorMedium
