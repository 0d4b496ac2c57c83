"""Scale ceiling: a generator-built dense deployment per medium kernel.

The coexistence surveys BiCord targets study deployments far denser than the
paper's office — hundreds of Wi-Fi pairs contending with thousands of ZigBee
links.  This benchmark compiles such a deployment from the ``grid`` generator
and drives a fixed event budget through it on **each medium kernel**,
recording realtime factor and engine event throughput into the benchmark JSON
(``BENCH_kernels.json`` when refreshed locally; see docs/reproducing.md) so
every future PR moves a tracked number.

One pedantic round per row: the run is expensive and the quantity of
interest (events/s at density) is stable enough that round-to-round variance
is dominated by machine noise anyway.  ``BICORD_BENCH_SCALE`` scales the
deployment for smoke runs.

At this density the per-event cost is dominated by Medium/coordination work,
not the scheduler.
"""

from __future__ import annotations

import pytest

from repro.phy.medium_fast import VectorMedium
from repro.phy.propagation import Position
from repro.scenarios import compile_scenario, get_scenario
from repro.sim.process import Process

from .conftest import scaled

#: Dense deployment: thousands of ZigBee links, hundreds of Wi-Fi pairs.
N_ZIGBEE_LINKS = scaled(1000)
N_WIFI_PAIRS = scaled(200)
#: Event budget per measured run (per-event cost at this density is ~1 ms,
#: so the budget bounds a round to a few seconds).
MAX_EVENTS = scaled(3000)

KERNELS = ["legacy", "vector"]

#: Radio-density axis: total radio counts for the kernel scaling curve.
#: The grid generator places 2 radios per ZigBee link and 2 per Wi-Fi pair;
#: the splits below keep 80% of the radios on ZigBee links at every density.
DENSITIES = [50, 200, 800]
MAX_EVENTS_DENSITY = scaled(1500)


def _compile_grid(kernel: str, n_zigbee: int, n_wifi: int):
    """Compile the grid; the caller has forced ``kernel`` with ``force_kernel``."""
    spec = get_scenario("grid", n_zigbee_links=n_zigbee, n_wifi_pairs=n_wifi)
    compiled = compile_scenario(spec, seed=7, trace_kinds=set())
    assert isinstance(compiled.ctx.medium, VectorMedium) == (kernel == "vector")
    return compiled


def _scale_run(kernel: str, n_zigbee=N_ZIGBEE_LINKS, n_wifi=N_WIFI_PAIRS,
               max_events=MAX_EVENTS):
    compiled = _compile_grid(kernel, n_zigbee, n_wifi)
    result = compiled.run(max_events=max_events)
    return result.events_processed, compiled.sim.now


def _report(emit, variant, benchmark, events, sim_seconds,
            n_zigbee=N_ZIGBEE_LINKS, n_wifi=N_WIFI_PAIRS):
    wall = benchmark.stats.stats.mean
    emit(
        f"scale_ceiling_{variant}",
        f"scale ceiling ({variant}): {n_zigbee} zigbee links + "
        f"{n_wifi} wifi pairs, {events} events in {wall:.2f} s wall -> "
        f"{events / wall:.0f} events/s, realtime factor "
        f"{sim_seconds / wall:.5f}x ({sim_seconds * 1e3:.2f} ms simulated)",
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_scale_ceiling_kernel(benchmark, emit, force_kernel, kernel):
    """Both medium kernels at full density.

    These two rows are the like-for-like pair behind the vectorized kernel's
    headline speedup: identical deployment, seed, and event budget,
    differing only in the Medium implementation.  The regression gate
    (``check_throughput_regression.py``) divides them.
    """
    force_kernel(kernel)
    events, sim_seconds = benchmark.pedantic(
        _scale_run, args=(kernel,), rounds=1, iterations=1
    )
    assert events == MAX_EVENTS  # the deployment saturates the budget
    _report(emit, f"kernel_{kernel}", benchmark, events, sim_seconds)


#: Mobility-churn axis: a moderate deployment driven for a fixed sim
#: horizon while a platoon of ZigBee senders is batch-moved 0, 1, or 10
#: times per simulated second.  Both kernels process a bitwise-identical
#: event stream (moves only invalidate lazily-rebuilt link state), so the
#: events/s rows are like-for-like and the regression gate can divide them.
CHURN_ZIGBEE = scaled(60)
CHURN_WIFI = scaled(8)
CHURN_HORIZON = 1.0
CHURN_RATES = [0, 1, 10]


def _churn_run(kernel: str, moves_per_s: int):
    compiled = _compile_grid(kernel, CHURN_ZIGBEE, CHURN_WIFI)
    movers = [
        link.sender.radio for link in compiled.zigbee_links.values()
    ][: max(4, CHURN_ZIGBEE // 4)]
    if moves_per_s:
        medium = compiled.ctx.medium

        def churn():
            step = 0
            while True:
                yield 1.0 / moves_per_s
                step += 1
                dx = 0.5 if step % 2 else -0.5
                medium.move_many(
                    (radio, Position(radio.position.x + dx, radio.position.y))
                    for radio in movers
                )

        Process(compiled.sim, churn(), name="churn")
    # A huge cap keeps run() on the capped path (no grace drain) while
    # the sim horizon, not the budget, ends the run.
    result = compiled.run(until=CHURN_HORIZON, max_events=10**9)
    return result.events_processed, compiled.sim.now


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("moves", CHURN_RATES)
def test_mobility_churn(benchmark, emit, force_kernel, moves, kernel):
    """Events/s under batched topology churn (0/1/10 moves per sim second).

    The 0-row is the static control; the 10-row is the roaming regime.  The
    gap between a kernel's own 0- and 10-rows prices its invalidation path
    (epoch bump + lazy row rebuilds), and the vector/legacy ratio at 10
    moves/s is gated >= 1.5x by ``check_throughput_regression.py``.
    """
    force_kernel(kernel)
    events, sim_seconds = benchmark.pedantic(
        _churn_run, args=(kernel, moves), rounds=1, iterations=1
    )
    assert events > 0
    _report(emit, f"mobility_churn_{moves}_{kernel}", benchmark, events,
            sim_seconds, n_zigbee=CHURN_ZIGBEE, n_wifi=CHURN_WIFI)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("radios", DENSITIES)
def test_medium_density(benchmark, emit, force_kernel, radios, kernel):
    """Events/s vs radio count, per kernel (the scaling curve itself).

    The legacy kernel's broadcast is O(radios) python work per transmission,
    so its events/s decays roughly linearly with density; the vectorized
    kernel amortizes the per-radio work into array sweeps and notification
    pruning, flattening the curve.  Tracking all six rows keeps the
    crossover visible rather than just the dense endpoint.
    """
    n_zigbee = radios * 2 // 5
    n_wifi = radios // 10
    force_kernel(kernel)
    events, sim_seconds = benchmark.pedantic(
        _scale_run,
        args=(kernel,),
        kwargs={"n_zigbee": n_zigbee, "n_wifi": n_wifi,
                "max_events": MAX_EVENTS_DENSITY},
        rounds=1,
        iterations=1,
    )
    assert events == MAX_EVENTS_DENSITY
    _report(emit, f"density_{radios}_{kernel}", benchmark, events, sim_seconds,
            n_zigbee=n_zigbee, n_wifi=n_wifi)
