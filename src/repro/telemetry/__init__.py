"""Telemetry: metrics, span profiling, and run manifests.

The subsystem has three pieces:

* a **metrics registry** (:class:`MetricsRegistry`) of counters, gauges,
  and fixed-bucket histograms, plus wall-clock **span** timers;
* a **run manifest** (:class:`RunManifest`) capturing per-run provenance
  (config digest, seed, code version, fault summary, wall time, headline
  metrics);
* an **exporter** (:func:`export`) writing both as JSONL or CSV.

Collection is opt-in and scoped::

    from repro import telemetry

    registry = telemetry.MetricsRegistry()
    with telemetry.collect(registry):
        result = run_experiment("coexistence", seed=0)
    registry.snapshot()["counters"]["sim.events_executed"]

Inside the ``collect`` scope, :func:`repro.context.build_context` captures
the active registry into ``SimContext.telemetry``, and every instrumented
component (simulator, coordinator, detector, fault harness, runners) feeds
it.  Outside the scope the active registry is :data:`NULL` — a shared
:class:`NullRegistry` whose instruments are do-nothing singletons, so a
run without telemetry executes the exact pre-telemetry code path and is
bitwise-identical to one.

Determinism contract: counter/gauge/histogram values are pure functions of
the simulation (safe to cache and compare across runs); wall-clock time
only ever appears in the ``spans`` snapshot section and in the manifest.
"""

from contextlib import contextmanager
from typing import Iterator, Optional

from .export import export
from .manifest import RunManifest, build_manifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    merge_snapshots,
)

#: The shared disabled registry (all instruments are no-ops).
NULL = NullRegistry()

_ACTIVE: MetricsRegistry = NULL


def active() -> MetricsRegistry:
    """The registry new simulation contexts will report to (NULL when off)."""
    return _ACTIVE


@contextmanager
def collect(registry: Optional[MetricsRegistry] = None) -> Iterator[MetricsRegistry]:
    """Scope within which telemetry is collected into ``registry``.

    Creates a fresh :class:`MetricsRegistry` when none is given; restores
    the previous active registry on exit (scopes nest).
    """
    global _ACTIVE
    if registry is None:
        registry = MetricsRegistry()
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL",
    "RunManifest",
    "active",
    "build_manifest",
    "collect",
    "export",
    "merge_snapshots",
]
