"""Campaigns: a named sweep saved in a directory, plus its report.

A :class:`CampaignSpec` (experiment + parameter grid + scenario grid +
seed range) plans the flat ``(params, seed)`` list that
:meth:`SweepEngine.run_pairs` takes.  ``run`` and ``resume`` send that plan
through the engine, whose content-addressed cache serves every trial that
already finished, so a killed campaign resumes with zero recomputation.
``status`` probes the cache for the planned trial keys, and ``report``
aggregates the cached results' ``metrics()`` in plan order.  The cache is
the only progress record: a deleted entry runs again on ``resume``.
A campaign directory holds::

    <dir>/spec.json      # the CampaignSpec, reloadable
    <dir>/manifest.json  # written on completion: provenance, telemetry, report
    <dir>/report.json    # written on completion: per-group CI summaries
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..serialization import from_dict, stable_hash, to_dict
from ..telemetry import build_manifest
from .registry import get_experiment
from .stats import MetricSummary, aggregate_records
from .sweep import SweepEngine, expand_grid, load_cached, trial_key
from .topology import Calibration

#: Campaign directory layout version; a mismatch refuses to resume.
#: 2: no shards and no journal; the sweep cache is the progress record.
CAMPAIGN_SCHEMA = 2


class CampaignError(RuntimeError):
    """Campaign directory unusable: corrupt, mismatched, or incomplete."""


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a whole campaign.

    ``grid`` axes are experiment config fields (like a sweep's);
    ``scenario_grid`` axes are *scenario factory* parameters, merged into
    the scenario experiment's nested ``params`` dict (e.g. a
    ``placement_seed`` range); every combination runs every seed.
    """

    name: str
    experiment: str = "scenario"
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    scenario_grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = (0,)
    compare_by: str = "scheme"

    def __post_init__(self) -> None:
        get_experiment(self.experiment)  # unknown name fails at build time
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.scenario_grid and self.experiment != "scenario":
            raise ValueError(
                "scenario_grid only applies to the 'scenario' experiment"
            )

    def fingerprint(self) -> str:
        """Content address of the spec (layout-versioned)."""
        return stable_hash({"schema": CAMPAIGN_SCHEMA, "spec": to_dict(self)})


def plan_campaign(spec: CampaignSpec) -> List[Tuple[Dict[str, Any], int]]:
    """Expand a spec into its full deterministic ``(params, seed)`` list.

    Expansion order is grid x scenario_grid x seeds, all in insertion
    order, so the plan — and therefore the report's record order — is
    stable across runs of the same spec.
    """
    combos = expand_grid(spec.grid, spec.base)
    if spec.scenario_grid:
        widened: List[Dict[str, Any]] = []
        for combo in combos:
            for inner in expand_grid(spec.scenario_grid):
                merged = dict(combo)
                merged["params"] = {**dict(merged.get("params", {})), **inner}
                widened.append(merged)
        combos = widened
    return [(combo, int(seed)) for combo in combos for seed in spec.seeds]


def campaign_from_generator(
    name: str,
    generator: str,
    count: int,
    axis: str = "placement_seed",
    start: int = 0,
    params: Optional[Mapping[str, Any]] = None,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    base: Optional[Mapping[str, Any]] = None,
    seeds: Sequence[int] = (0,),
    compare_by: str = "scheme",
) -> CampaignSpec:
    """A campaign over ``count`` placements of one scenario generator.

    ``axis`` (default ``placement_seed``) is swept over
    ``range(start, start + count)``; ``params`` are fixed generator
    parameters; ``grid``/``base`` are ordinary campaign axes.  The generator
    and axis are checked against the scenario library here, so a typo fails
    with the generator's parameter list, not deep inside a worker.
    """
    from ..scenarios import get_scenario_entry

    entry = get_scenario_entry(generator)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    fixed = dict(params or {})
    unknown = sorted((set(fixed) | {axis}) - set(entry.param_names))
    if unknown:
        raise ValueError(
            f"scenario generator {entry.name!r} has no parameter(s) {unknown}; "
            f"valid: {sorted(entry.param_names)}"
        )
    if axis in fixed:
        raise ValueError(
            f"axis {axis!r} also appears in params; it is swept, not fixed"
        )
    reserved = {"scenario", "params"} & set(base or {}) | {"scenario", "params"} & set(grid or {})
    if reserved:
        raise ValueError(
            f"base/grid may not set {sorted(reserved)}; the generator call "
            "owns them (use params=/axis= for generator knobs)"
        )
    merged_base = {"scenario": entry.name, "params": fixed, **dict(base or {})}
    return CampaignSpec(
        name=name,
        experiment="scenario",
        grid=dict(grid or {}),
        base=merged_base,
        scenario_grid={axis: tuple(range(int(start), int(start) + int(count)))},
        seeds=tuple(int(s) for s in seeds),
        compare_by=compare_by,
    )


def _flat_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Lift nested scenario factory params to the top level for grouping."""
    flat = dict(params)
    inner = flat.get("params")
    if isinstance(inner, Mapping):
        flat = {**flat, **inner}
        flat.pop("params", None)
    return flat


def _write_json(path: Path, payload: Any) -> None:
    """Write-then-rename, so readers never see a half-written file."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass
class CampaignStatus:
    """Progress snapshot of a campaign directory."""

    name: str
    fingerprint: str
    total: int
    done: int  # planned trials the cache would serve right now

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.done)


@dataclass
class CampaignRun:
    """Outcome of one ``run``/``resume`` invocation."""

    spec: CampaignSpec
    total: int
    completed: int  # planned trials done after this invocation
    executed: int  # trials actually computed this invocation
    cached_hits: int  # trials served from the cache this invocation
    elapsed: float
    telemetry: Optional[Dict[str, Any]] = None
    summaries: Optional[Dict[Any, Dict[str, MetricSummary]]] = None

    @property
    def complete(self) -> bool:
        return self.completed >= self.total


class CampaignRunner:
    """Drives a campaign directory through :class:`SweepEngine`."""

    def __init__(
        self, directory: os.PathLike, jobs: int = 1,
        cache_dir: Optional[os.PathLike] = None, cache: bool = True,
        calibration: Optional[Calibration] = None, telemetry: bool = True,
        quiet: bool = False,
    ):
        self.directory = Path(directory)
        self.jobs = int(jobs)
        self.cache_dir = cache_dir
        #: Without the cache nothing records progress: a run must finish in
        #: one invocation, and ``report`` needs a cached rerun.
        self.cache = bool(cache)
        self.calibration = calibration
        self.telemetry = bool(telemetry)
        self.quiet = bool(quiet)
        self.spec_path = self.directory / "spec.json"
        self.manifest_path = self.directory / "manifest.json"

    def save_spec(self, spec: CampaignSpec) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        _write_json(self.spec_path, {"schema": CAMPAIGN_SCHEMA, "spec": to_dict(spec)})

    def load_spec(self) -> CampaignSpec:
        try:
            payload = json.loads(self.spec_path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise CampaignError(
                f"no campaign at {self.directory} (missing spec.json): {exc}"
            ) from None
        if payload.get("schema") != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"campaign schema {payload.get('schema')!r} != {CAMPAIGN_SCHEMA}; "
                "start a new campaign directory"
            )
        return from_dict(CampaignSpec, payload["spec"])

    def _plan(self, spec: CampaignSpec) -> Tuple[List[Any], List[str]]:
        """The plan and its cache keys; unknown parameters fail here."""
        plan = plan_campaign(spec)
        try:
            keys = [
                trial_key(spec.experiment, params, seed, self.calibration)
                for params, seed in plan
            ]
        except TypeError as exc:
            raise CampaignError(*exc.args) from None
        return plan, keys

    def _engine(self, progress: Optional[Any] = None) -> SweepEngine:
        return SweepEngine(
            jobs=self.jobs, cache_dir=self.cache_dir, cache=self.cache,
            telemetry=self.telemetry, progress=progress, quiet=self.quiet,
        )

    def run(
        self, spec: Optional[CampaignSpec] = None,
        max_trials: Optional[int] = None, progress: Optional[Any] = None,
    ) -> CampaignRun:
        """Run ``spec`` (or resume the directory's own) through the engine.

        ``max_trials`` caps the cache misses this invocation executes;
        ``progress`` is the engine's ``callback(record, n_done, n_total)``.
        """
        spec = spec if spec is not None else self.load_spec()
        plan, keys = self._plan(spec)  # before anything is written
        if max_trials is not None and not self.cache:
            raise CampaignError(
                "max_trials needs the trial cache: without it no run keeps progress"
            )
        if not self.spec_path.exists():
            self.save_spec(spec)
        elif self.load_spec().fingerprint() != spec.fingerprint():
            raise CampaignError(
                f"campaign directory {self.directory} already holds a "
                "different spec; use a fresh directory"
            )

        engine = self._engine(progress)
        pairs = plan
        if max_trials is not None:
            cls = get_experiment(spec.experiment).result_cls
            misses = [i for i, key in enumerate(keys) if not engine.cache_has(key, cls)]
            skipped = set(misses[int(max_trials):])
            pairs = [pair for index, pair in enumerate(plan) if index not in skipped]
        sweep = engine.run_pairs(spec.experiment, pairs, calibration=self.calibration)
        run = CampaignRun(
            spec, total=len(plan), completed=len(pairs),
            executed=sweep.executed, cached_hits=sweep.cached_hits,
            elapsed=sweep.elapsed, telemetry=sweep.telemetry,
        )
        if run.complete:
            run.summaries = aggregate_records(
                [(_flat_params(r.params), r.result.metrics()) for r in sweep.records],
                compare_by=spec.compare_by,
            )
            self._write_manifest(spec, run)
        return run

    def status(self) -> CampaignStatus:
        """Progress of the campaign directory: a probe of the cache."""
        spec = self.load_spec()
        _, keys = self._plan(spec)
        engine = self._engine()
        result_cls = get_experiment(spec.experiment).result_cls
        done = sum(engine.cache_has(key, result_cls) for key in keys)
        return CampaignStatus(spec.name, spec.fingerprint(), len(keys), done)

    def report(self, batch: bool = False) -> Dict[Any, Dict[str, MetricSummary]]:
        """Per-group (default: per-scheme) summaries of the cached results."""
        spec = self.load_spec()
        plan = plan_campaign(spec)
        records = []
        for params, seed in plan:
            result = load_cached(spec.experiment, params, seed,
                                 self.calibration, self.cache_dir)
            if result is not None:
                records.append((_flat_params(params), result.metrics()))
        missing = len(plan) - len(records)
        if missing:
            raise CampaignError(
                f"{missing} of {len(plan)} planned trial(s) of campaign "
                f"{spec.name!r} are not in the cache; run them with: "
                f"repro campaign resume --dir {self.directory}"
            )
        return aggregate_records(records, compare_by=spec.compare_by, batch=batch)

    def _write_manifest(self, spec: CampaignSpec, run: CampaignRun) -> None:
        """One provenance manifest plus the merged telemetry and the report."""
        summaries = run.summaries or {}
        report = {
            str(group): {name: summary.to_dict() for name, summary in metrics.items()}
            for group, metrics in summaries.items()
        }
        manifest = build_manifest(
            spec.experiment, seeds=spec.seeds, calibration=self.calibration,
            wall_time_s=run.elapsed,
            metrics={
                f"{group}.{name}": summary.mean
                for group, metrics in summaries.items()
                for name, summary in metrics.items()
            },
            extra={
                "campaign": spec.name, "schema": CAMPAIGN_SCHEMA,
                "fingerprint": spec.fingerprint(), "trials": run.total,
                "compare_by": spec.compare_by, "executed": run.executed,
                "cached_hits": run.cached_hits,
            },
        )
        _write_json(
            self.manifest_path,
            {**manifest.to_dict(), "telemetry": run.telemetry, "report": report},
        )
        _write_json(self.directory / "report.json", report)
