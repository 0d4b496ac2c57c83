"""The stable, import-one-name API of the reproduction.

Everything a script, notebook, or downstream harness needs lives behind
five functions::

    import repro.api as bicord

    result = bicord.run("coexistence", scheme="bicord", seed=3)
    run = bicord.sweep("learning", grid={"n_bursts": (20, 40)}, seeds=range(5))
    outcome = bicord.campaign(spec, directory="runs/office", jobs=4)
    spec = bicord.load_scenario("dense-office", n_links=6)
    cached = bicord.get_result("coexistence", {"scheme": "ecc"}, seed=3)

These wrappers are intentionally thin — each delegates to the underlying
subsystem (registry, sweep engine, campaign runner, scenario library,
sweep cache) — but their *signatures* are the compatibility contract:
internals may reorganize; ``repro.api`` does not.  Every experiment result
returned here implements the :class:`repro.experiments.ExperimentResult`
protocol (``scheme``/``seed`` identity, ``to_dict()``, ``metrics()``).
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from .experiments.campaign import (
    CampaignRun,
    CampaignRunner,
    CampaignSpec,
    campaign_from_generator,
)
from .experiments.registry import run_experiment
from .experiments.sweep import (
    SweepEngine,
    SweepRun,
    SweepSpec,
    load_cached,
)
from .experiments.topology import Calibration

__all__ = [
    "run",
    "sweep",
    "campaign",
    "campaign_from_generator",
    "load_scenario",
    "get_result",
    "CampaignSpec",
    "Calibration",
]


def run(
    experiment: str,
    *,
    config: Any = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
    **params: Any,
):
    """Run one trial of any registered experiment; returns its result.

    ``params`` are fields of the experiment's config dataclass (see
    ``repro experiments`` or :func:`repro.experiments.get_experiment`).
    """
    return run_experiment(
        experiment, config=config, seed=seed, calibration=calibration, **params
    )


def sweep(
    experiment: str,
    grid: Optional[Mapping[str, Sequence[Any]]] = None,
    base: Optional[Mapping[str, Any]] = None,
    seeds: Iterable[int] = (0,),
    jobs: int = 1,
    calibration: Optional[Calibration] = None,
    cache: bool = True,
    cache_dir: Optional[os.PathLike] = None,
    telemetry: bool = False,
    quiet: bool = False,
) -> SweepRun:
    """Run a parameter grid x seed sweep (parallel, cached); see SweepRun."""
    engine = SweepEngine(
        jobs=jobs, cache=cache, cache_dir=cache_dir,
        telemetry=telemetry, quiet=quiet,
    )
    spec = SweepSpec(
        experiment=experiment,
        grid=dict(grid or {}),
        base=dict(base or {}),
        seeds=tuple(int(s) for s in seeds),
        calibration=calibration,
    )
    return engine.run(spec)


def campaign(
    spec: Optional[Union[CampaignSpec, Mapping[str, Any]]] = None,
    directory: os.PathLike = "campaign",
    jobs: int = 1,
    max_trials: Optional[int] = None,
    calibration: Optional[Calibration] = None,
    cache_dir: Optional[os.PathLike] = None,
    quiet: bool = True,
) -> CampaignRun:
    """Run (or resume) a named, cached campaign in ``directory``.

    Pass a :class:`CampaignSpec` (or a plain dict of its fields) to start;
    omit it to resume whatever the directory holds.  Safe to kill at any
    point — re-invoking serves every finished trial from the sweep cache.
    """
    if isinstance(spec, Mapping):
        spec = CampaignSpec(**spec)
    runner = CampaignRunner(
        directory, jobs=jobs, cache_dir=cache_dir,
        calibration=calibration, quiet=quiet,
    )
    return runner.run(spec, max_trials=max_trials)


def load_scenario(name: str, **params: Any):
    """Resolve a library scenario to its :class:`ScenarioSpec` by name.

    ``params`` are the scenario factory's knobs (``repro scenario
    describe <name>`` lists them); the returned spec is frozen and can be
    compiled (:func:`repro.scenarios.compile_scenario`) or fed to
    :func:`run`/:func:`sweep` as the ``scenario`` experiment.
    """
    from .scenarios import get_scenario  # lazy: scenario lib pulls devices

    return get_scenario(name, **params)


def get_result(
    experiment: str,
    params: Optional[Mapping[str, Any]] = None,
    seed: int = 0,
    calibration: Optional[Calibration] = None,
    cache_dir: Optional[os.PathLike] = None,
):
    """Fetch one trial's cached result without running anything.

    Returns ``None`` when the trial was never executed (or its cache entry
    no longer matches the current code/config version).
    """
    return load_cached(
        experiment, params=params, seed=seed,
        calibration=calibration, cache_dir=cache_dir,
    )
