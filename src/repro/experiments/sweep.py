"""Parallel sweep engine with deterministic on-disk result caching.

Every paper figure is a sweep — seeds x locations x schemes x parameter
values.  :class:`SweepEngine` runs such grids through the experiment
registry, fanning trials out across worker processes
(``concurrent.futures.ProcessPoolExecutor``) with a serial in-process
fallback for ``jobs=1``.  Because each trial builds its own simulation
context from its own seed, a parallel sweep is bitwise-identical to a
serial one — only wall-clock time changes.

Completed trials are memoized in a content-addressed cache: the key is a
SHA-256 over (experiment name, fully-resolved config, seed, calibration,
code version), so re-running a sweep — or resuming one that died halfway —
re-executes nothing that already finished, while any config change hashes
to a different address and forces a fresh run.

Cache location: ``$BICORD_SWEEP_CACHE`` if set, else
``~/.cache/bicord/sweeps``.  Entries are small JSON files; deleting the
directory (or calling :meth:`SweepEngine.clear_cache`) is always safe.

::

    from repro.experiments import SweepEngine, SweepSpec

    spec = SweepSpec(
        experiment="coexistence",
        grid={"scheme": ("bicord", "ecc"), "location": ("A", "B")},
        base={"n_bursts": 20},
        seeds=(0, 1, 2),
    )
    run = SweepEngine(jobs=4).run(spec)
    run.results            # one CoexistenceResult per (grid point, seed)
    run.cached_hits        # trials served from the cache
"""

from __future__ import annotations

import itertools
import json
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .. import __version__ as _CODE_VERSION
from ..log import get_logger
from ..serialization import canonical_dumps, from_dict, stable_hash, to_dict
from ..telemetry import MetricsRegistry, collect as telemetry_collect, merge_snapshots
from .registry import get_experiment, resolve_config, run_experiment
from .topology import Calibration

#: Bump when the cache entry layout changes (invalidates old entries).
#: 2: configs grew a ``faults`` block (resolved-config hashes changed).
#: 3: entries carry an optional ``metrics`` telemetry snapshot.
#: 4: scenario experiment added; dict-valued results coerce typed values.
#: 5: results implement the ExperimentResult contract (seed field added).
#: 6: event-capped scenario runs end at the last fired event, not the horizon.
#: 7: coexistence/robustness trials compile a scenario, so their telemetry
#:    snapshots carry the ``scenario.*`` instruments.
#: 8: the medium kernel follows the radio count, so small scenarios' telemetry
#:    no longer carries the vector-only ``medium.*`` counters.
#: 9: every traffic source draws from ``traffic/<link name>`` (priority
#:    scenarios reshuffle their phases), and the signaling, learning,
#:    priority and energy trials compile a scenario, so their telemetry
#:    carries the ``scenario.*`` instruments.
#: 10: entries keep the result's dict order instead of sorting keys, so a
#:    cached ``ScenarioResult`` averages its links' delays in the fresh
#:    run's order (its ``mean_delay`` no longer moves in the last bit).
#: 11: a CTI collection stops at its last trace, so the ``cti`` and
#:    ``device-id`` telemetry snapshots count fewer simulator events.
#: 12: the 802.11 BER takes ``math.erfc``, not scipy's (last-bit differences).
CACHE_SCHEMA = 12

_LOG = get_logger("sweep")


def default_cache_dir() -> Path:
    """Resolve the cache root: $BICORD_SWEEP_CACHE or ~/.cache/bicord/sweeps."""
    env = os.environ.get("BICORD_SWEEP_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/bicord/sweeps").expanduser()


def expand_grid(
    grid: Mapping[str, Sequence[Any]],
    base: Optional[Mapping[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, merged over ``base``.

    Axis order follows the mapping's insertion order, values keep their
    given order, so the expansion is deterministic.  An empty grid yields
    exactly one trial (the base parameters).
    """
    base = dict(base or {})
    axes: List[Tuple[str, List[Any]]] = []
    for name, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
            raise TypeError(
                f"grid axis {name!r} must be a list/tuple of values, "
                f"got {type(values).__name__}: {values!r}"
            )
        if not values:
            raise ValueError(f"grid axis {name!r} has no values")
        axes.append((name, list(values)))
    combos = itertools.product(*(values for _, values in axes))
    names = [name for name, _ in axes]
    return [{**base, **dict(zip(names, combo))} for combo in combos]


def trial_key(
    experiment: str,
    params: Mapping[str, Any],
    seed: int,
    calibration: Optional[Calibration] = None,
    code_version: Optional[str] = None,
) -> str:
    """Content address of one trial.

    Hashes the *fully-resolved* config (partial params merged over the
    experiment's defaults), so ``{"n_bursts": 40}`` and an explicit config
    carrying the same values share one cache entry — and any field change,
    including a default changing in a new code version, misses.
    """
    spec = get_experiment(experiment)
    resolved = to_dict(spec.make_config(**dict(params)))
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_version if code_version is not None else _CODE_VERSION,
        "experiment": spec.name,
        "config": resolved,
        "seed": int(seed),
        "calibration": to_dict(calibration if calibration is not None else Calibration()),
    }
    return stable_hash(payload)


@dataclass
class TrialRecord:
    """One completed trial inside a sweep."""

    index: int
    experiment: str
    params: Dict[str, Any]
    seed: int
    key: str
    result: Any
    elapsed: float  # seconds the trial took when it actually executed
    cached: bool  # served from the on-disk cache?
    #: Deterministic telemetry snapshot (counters/gauges/histograms) of the
    #: trial, when the engine ran with ``telemetry=True``; cached alongside
    #: the result, so re-runs reproduce identical metric values.  Spans
    #: (wall-clock) never appear here — they go to the run-level profile.
    metrics: Optional[Dict[str, Any]] = None


@dataclass
class SweepRun:
    """A finished sweep: ordered records plus execution statistics."""

    experiment: str
    records: List[TrialRecord]
    elapsed: float  # wall-clock of the whole sweep
    executed: int  # trials actually run this time
    cached_hits: int  # trials served from the cache
    jobs: int
    #: Merged telemetry of the whole sweep (every trial snapshot folded
    #: together, plus the engine's own spans), or None when the engine ran
    #: without telemetry.
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def results(self) -> List[Any]:
        return [record.result for record in self.records]

    def telemetry_by_combo(self) -> Dict[Tuple[Tuple[str, Any], ...], Dict[str, Any]]:
        """Merged per-combo metric snapshots (seeds folded together).

        Empty dict when the sweep ran without telemetry.
        """
        merged: Dict[Tuple[Tuple[str, Any], ...], Dict[str, Any]] = {}
        for combo, records in self.combos().items():
            snaps = [r.metrics for r in records if r.metrics is not None]
            if snaps:
                merged[combo] = merge_snapshots(snaps)
        return merged

    def group_by(self, *param_names: str) -> Dict[Tuple[Any, ...], List[TrialRecord]]:
        """Records bucketed by the values of the named parameters (in order)."""
        groups: Dict[Tuple[Any, ...], List[TrialRecord]] = {}
        for record in self.records:
            key = tuple(record.params.get(name) for name in param_names)
            groups.setdefault(key, []).append(record)
        return groups

    def combos(self) -> Dict[Tuple[Tuple[str, Any], ...], List[TrialRecord]]:
        """Records bucketed by their full parameter combination (seeds merged)."""
        groups: Dict[Tuple[Tuple[str, Any], ...], List[TrialRecord]] = {}
        for record in self.records:
            key = tuple(sorted(
                (name, value) for name, value in record.params.items()
                if isinstance(value, (str, int, float, bool)) or value is None
            ))
            groups.setdefault(key, []).append(record)
        return groups


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a sweep over one experiment."""

    experiment: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    calibration: Optional[Calibration] = None


def _execute_trial(
    experiment: str,
    params: Dict[str, Any],
    seed: int,
    calibration: Optional[Calibration],
) -> Tuple[Any, float, Dict[str, Any]]:
    """Worker entry point: run one trial -> (result, elapsed, snapshot).

    Top-level so ``ProcessPoolExecutor`` can pickle it by reference; also
    used verbatim by the serial path, which keeps the two modes identical.
    The trial runs inside its own registry scope and the full snapshot
    (including the worker's spans) travels back to the parent, which splits
    the deterministic sections from the profiling.
    """
    start = time.perf_counter()
    registry = MetricsRegistry()
    with telemetry_collect(registry):
        result = run_experiment(
            experiment, seed=seed, calibration=calibration, **params
        )
    return result, time.perf_counter() - start, registry.snapshot(spans=True)


ProgressCallback = Callable[[TrialRecord, int, int], None]


def load_cached(
    experiment: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    calibration: Optional[Calibration] = None,
    cache_dir: Optional[os.PathLike] = None,
):
    """Fetch one trial's cached result, or None if it was never run.

    The read-only counterpart of a sweep: addresses the trial exactly like
    the engine would (same key, same schema checks) without executing
    anything.  Backs :func:`repro.api.get_result`.
    """
    spec = get_experiment(experiment)
    engine = SweepEngine(cache_dir=cache_dir)
    key = trial_key(experiment, dict(params or {}), seed, calibration)
    hit = engine._cache_load(key, spec.result_cls)
    return hit[0] if hit is not None else None


class SweepEngine:
    """Runs parameter sweeps through the registry, in parallel, memoized.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (default) runs serially in-process —
        no pickling, easier debugging, identical results.
    cache_dir / cache:
        Where trial results are memoized; ``cache=False`` disables
        memoization entirely (benchmarks measuring wall time want this).
    progress:
        ``callback(record, n_done, n_total)`` invoked as each trial
        completes (including cache hits), in completion order.
    telemetry:
        Expose per-trial metric snapshots on each :class:`TrialRecord` and
        the merged aggregate on the run.  Off by default.  Either way every
        executed trial's deterministic snapshot is cached with its result,
        so a collecting run (a campaign, ``--metrics-out``) is served from
        entries a plain sweep wrote.
    quiet / progress_interval:
        The engine logs periodic progress (trials done/total, cache hits,
        ETA) through the ``repro.sweep`` logger roughly every
        ``progress_interval`` seconds; ``quiet=True`` silences it.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None,
        cache: bool = True,
        progress: Optional[ProgressCallback] = None,
        telemetry: bool = False,
        quiet: bool = False,
        progress_interval: float = 5.0,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache_enabled = bool(cache)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.progress = progress
        self.telemetry = bool(telemetry)
        self.quiet = bool(quiet)
        self.progress_interval = float(progress_interval)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def _cache_load(
        self, key: str, result_cls: type
    ) -> Optional[Tuple[Any, float, Optional[Dict[str, Any]]]]:
        if not self.cache_enabled:
            return None
        path = self._entry_path(key)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if data.get("schema") != CACHE_SCHEMA:
                return None
            if data.get("result_type") != result_cls.__name__:
                return None
            metrics = data.get("metrics")
            if self.telemetry and metrics is None:
                # The entry predates caching every trial's snapshot:
                # re-execute so the snapshot exists (and gets cached) too.
                return None
            # Results implementing the ExperimentResult contract own their
            # deserialization; plain dataclasses go through serialization.
            loader = getattr(result_cls, "from_dict", None)
            if callable(loader):
                result = loader(data["result"])
            else:
                result = from_dict(result_cls, data["result"])
            return result, float(data.get("elapsed", 0.0)), metrics
        except (OSError, ValueError, TypeError, KeyError):
            # Missing or corrupt entry: treat as a miss, never as an error.
            return None

    def cache_has(self, key: str, result_cls: type) -> bool:
        """Would ``key`` be served from the cache right now?

        Applies the exact `_cache_load` acceptance rules (schema, result
        type, telemetry completeness), so a True answer means a subsequent
        run of that trial costs zero recomputation.
        """
        return self._cache_load(key, result_cls) is not None

    def _cache_store(
        self, key: str, experiment: str, params: Dict[str, Any],
        seed: int, result: Any, elapsed: float,
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not self.cache_enabled:
            return
        try:
            entry = {
                "schema": CACHE_SCHEMA,
                "code": _CODE_VERSION,
                "experiment": experiment,
                "config": to_dict(resolve_config(experiment, **params)),
                "seed": int(seed),
                "result_type": type(result).__name__,
                "elapsed": float(elapsed),
                "result": to_dict(result),
            }
            if metrics is not None:
                entry["metrics"] = metrics
        except TypeError as exc:
            warnings.warn(f"sweep result not cacheable: {exc}", RuntimeWarning)
            return
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so readers never observe a half-written entry
        # (a torn write would otherwise poison the address until cleared);
        # the pid suffix keeps concurrent writers off each other's temp
        # file, and os.replace is atomic so whoever renames last wins with
        # a complete entry either way.
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                # Insertion order, not sorted keys: a result's dict order
                # is part of its value (see CACHE_SCHEMA 10).
                handle.write(json.dumps(entry))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            warnings.warn(f"sweep cache write failed: {exc}", RuntimeWarning)
            try:
                tmp.unlink()
            except OSError:
                pass

    def clear_cache(self) -> int:
        """Delete every cache entry; returns the number removed.

        Also sweeps up orphaned ``*.tmp*`` files left by writers that died
        between write and rename (not counted in the return value).
        """
        removed = 0
        if self.cache_dir.is_dir():
            for entry in self.cache_dir.glob("*/*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            for orphan in self.cache_dir.glob("*/*.json.tmp*"):
                try:
                    orphan.unlink()
                except OSError:
                    pass
        return removed

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec, jobs: Optional[int] = None) -> SweepRun:
        """Expand a :class:`SweepSpec` grid and run every (params, seed)."""
        params_list = expand_grid(spec.grid, spec.base)
        return self.run_trials(
            spec.experiment, params_list,
            seeds=spec.seeds, calibration=spec.calibration, jobs=jobs,
        )

    def run_trials(
        self,
        experiment: str,
        params_list: Sequence[Mapping[str, Any]],
        seeds: Sequence[int] = (0,),
        calibration: Optional[Calibration] = None,
        jobs: Optional[int] = None,
    ) -> SweepRun:
        """Run an explicit trial list (each params dict x each seed).

        This is the lower-level entry the benchmarks use when their grids
        are not cartesian (e.g. Fig. 10 scales burst counts per interval).
        """
        pairs: List[Tuple[Mapping[str, Any], int]] = []
        for params in params_list:
            reserved = {"seed", "calibration"} & set(params)
            if reserved:
                raise ValueError(
                    f"trial params may not contain {sorted(reserved)}; "
                    "use the seeds=/calibration= arguments instead"
                )
            for seed in seeds:
                pairs.append((params, int(seed)))
        return self.run_pairs(experiment, pairs, calibration=calibration, jobs=jobs)

    def run_pairs(
        self,
        experiment: str,
        pairs: Sequence[Tuple[Mapping[str, Any], int]],
        calibration: Optional[Calibration] = None,
        jobs: Optional[int] = None,
    ) -> SweepRun:
        """Run an explicit ``(params, seed)`` pair list.

        The lowest-level entry: a campaign sends its whole plan through it,
        or the plan's cache hits plus the first ``--max-trials`` misses,
        which is neither cartesian nor grouped by seed.
        """
        spec = get_experiment(experiment)
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        tasks: List[Tuple[int, Dict[str, Any], int, str]] = []
        for index, (params, seed) in enumerate(pairs):
            trial_params = dict(params)
            key = trial_key(experiment, trial_params, seed, calibration)
            tasks.append((index, trial_params, int(seed), key))

        start = time.perf_counter()
        total = len(tasks)
        done = 0
        cached_so_far = 0
        last_report = start
        records: Dict[int, TrialRecord] = {}
        pending: List[Tuple[int, Dict[str, Any], int, str]] = []
        run_registry = MetricsRegistry() if self.telemetry else None

        def report_progress(force: bool = False) -> None:
            """Periodic progress through the telemetry/logging sink."""
            nonlocal last_report
            if self.quiet or done == 0:
                return
            now = time.perf_counter()
            if not force and now - last_report < self.progress_interval:
                return
            last_report = now
            elapsed = now - start
            eta = elapsed / done * (total - done)
            _LOG.info(
                "%s: %d/%d trials (%d cached), %.1fs elapsed, ETA %.1fs",
                experiment, done, total, cached_so_far, elapsed, eta,
            )

        def finish(record: TrialRecord, snapshot: Optional[Dict[str, Any]] = None) -> None:
            nonlocal done, cached_so_far
            if snapshot is not None:
                # Split profiling from metrics: spans are wall-clock and only
                # merge into the run-level profile; the deterministic sections
                # ride on (and cache with) the record.
                spans = snapshot.pop("spans", None)
                record.metrics = snapshot
                if run_registry is not None:
                    run_registry.merge(snapshot)
                    run_registry.merge({"spans": spans} if spans else None)
            elif record.metrics is not None and run_registry is not None:
                run_registry.merge(record.metrics)
            records[record.index] = record
            done += 1
            cached_so_far += int(record.cached)
            if not record.cached:
                self._cache_store(
                    record.key, spec.name, record.params, record.seed,
                    record.result, record.elapsed, metrics=record.metrics,
                )
            if not self.telemetry:
                record.metrics = None
            if self.progress is not None:
                self.progress(record, done, total)
            report_progress(force=done == total)

        # Pass 1: serve everything the cache already has.
        for idx, params, seed, key in tasks:
            hit = self._cache_load(key, spec.result_cls)
            if hit is not None:
                result, elapsed, metrics = hit
                finish(TrialRecord(idx, spec.name, params, seed, key,
                                   result, elapsed, cached=True, metrics=metrics))
            else:
                pending.append((idx, params, seed, key))

        # Pass 2: execute the misses, serially or across worker processes.
        if pending and (jobs == 1 or len(pending) == 1):
            for idx, params, seed, key in pending:
                result, elapsed, snapshot = _execute_trial(
                    spec.name, params, seed, calibration
                )
                finish(TrialRecord(idx, spec.name, params, seed, key,
                                   result, elapsed, cached=False), snapshot)
        elif pending:
            workers = min(jobs, len(pending))
            failure: Optional[BaseException] = None
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_execute_trial, spec.name, params, seed, calibration):
                        (idx, params, seed, key)
                    for idx, params, seed, key in pending
                }
                remaining = set(futures)
                while remaining:
                    finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in finished:
                        idx, params, seed, key = futures[future]
                        # Drain every finished future before propagating a
                        # failure: trials that DID complete still get cached,
                        # so a crashed/killed worker (e.g. BrokenProcessPool)
                        # costs only its own trial on resume, not its
                        # siblings'.
                        try:
                            result, elapsed, snapshot = future.result()
                        except BaseException as exc:  # noqa: BLE001
                            if failure is None:
                                failure = exc
                            continue
                        finish(TrialRecord(idx, spec.name, params, seed, key,
                                           result, elapsed, cached=False), snapshot)
            if failure is not None:
                raise failure

        wall = time.perf_counter() - start
        run_telemetry = None
        if run_registry is not None:
            run_registry.counter("sweep.trials").inc(total)
            run_registry.counter("sweep.executed").inc(len(pending))
            run_registry.counter("sweep.cache_hits").inc(total - len(pending))
            run_registry.observe_span("sweep.run", wall)
            run_telemetry = run_registry.snapshot(spans=True)
        ordered = [records[idx] for idx, *_ in tasks]
        return SweepRun(
            experiment=spec.name,
            records=ordered,
            elapsed=wall,
            executed=len(pending),
            cached_hits=total - len(pending),
            jobs=jobs,
            telemetry=run_telemetry,
        )
