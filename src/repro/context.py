"""Simulation context: one object bundling the kernel pieces of a scenario.

Every experiment needs the same five things wired together — a simulator, a
seeded stream factory, a trace recorder, a propagation channel, and the
medium.  :func:`build_context` assembles them so device constructors stay
short and every random draw in a scenario is derived from one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from . import telemetry as _telemetry
from .faults import FaultHarness, FaultPlan, build_harness
from .phy.medium import Medium
from .phy.medium_fast import VectorMedium
from .phy.propagation import Channel, FadingModel, PathLossModel
from .sim.engine import Simulator
from .sim.rng import RandomStreams
from .sim.trace import TraceRecorder
from .telemetry import MetricsRegistry


#: Radio count from which :func:`build_context` builds the struct-of-arrays
#: :class:`~repro.phy.medium_fast.VectorMedium` instead of the per-radio
#: loops of :class:`~repro.phy.medium.Medium`.  Measured on the ``grid``
#: generator (0.3 s simulated, seeds 1-2, median of 5 interleaved rounds,
#: Python 3.11, numpy 2.4, 2-vCPU Xeon), repeated 2-6 times per size,
#: vector/loop wall time ranged 0.99-1.54 at 10 radios, 0.88-1.34 at 16,
#: 0.94-1.22 at 20, 0.89-1.19 at 24, 0.81-1.00 at 26 and 0.83-0.91 at 28.
#: Vector wins in every repeat only from 28 radios.  The paper's
#: deployments (4-7 radios) stay on the loops; the 480-radio dense grid
#: does not.
VECTOR_MEDIUM_MIN_RADIOS = 28


@dataclass
class SimContext:
    """The shared plumbing of one simulated scenario."""

    sim: Simulator
    streams: RandomStreams
    trace: TraceRecorder
    channel: Channel
    medium: Medium
    #: Seeded fault injectors for this scenario; ``None`` = fault-free.
    #: Devices and protocol layers consult this at construction time, so the
    #: harness must be installed before devices are built (pass the plan to
    #: :func:`build_context` rather than assigning afterwards).
    faults: Optional[FaultHarness] = None
    #: Metrics registry the scenario reports to.  Captured from the active
    #: :func:`repro.telemetry.collect` scope at build time; outside a scope
    #: this is the shared no-op :data:`repro.telemetry.NULL` registry, so
    #: instrumented components never need a None check.
    telemetry: MetricsRegistry = field(default_factory=lambda: _telemetry.NULL)

    @property
    def now(self) -> float:
        return self.sim.now


def build_context(
    seed: int = 0,
    path_loss: Optional[PathLossModel] = None,
    fading: Optional[FadingModel] = None,
    trace_kinds: Optional[Set[str]] = None,
    faults: Optional[FaultPlan] = None,
    n_radios: int = 0,
) -> SimContext:
    """Create a fully wired :class:`SimContext`.

    ``trace_kinds`` restricts which record kinds are *stored* (counters are
    always kept); pass ``None`` to store everything, or an empty set to store
    nothing.  ``faults`` is an optional :class:`~repro.faults.FaultPlan`
    whose injectors are seeded from the same stream family as everything
    else; an inert plan leaves the context exactly fault-free.
    ``n_radios`` is the number of radios the caller will attach: at or above
    :data:`VECTOR_MEDIUM_MIN_RADIOS` the medium is a
    :class:`~repro.phy.medium_fast.VectorMedium`, below it a plain
    :class:`~repro.phy.medium.Medium`.  Both give bit-identical results, so
    the count only moves speed.
    """
    sim = Simulator()
    streams = RandomStreams(seed=seed)
    trace = TraceRecorder(enabled_kinds=trace_kinds)
    channel = Channel(
        path_loss=path_loss or PathLossModel(),
        fading=fading or FadingModel(),
        streams=streams,
    )
    registry = _telemetry.active()
    kernel = VectorMedium if n_radios >= VECTOR_MEDIUM_MIN_RADIOS else Medium
    medium = kernel(sim, channel, trace=trace, telemetry=registry)
    return SimContext(
        sim=sim, streams=streams, trace=trace, channel=channel, medium=medium,
        faults=build_harness(faults, streams),
        telemetry=registry,
    )
