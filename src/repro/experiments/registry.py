"""Unified experiment registry: every runner behind one uniform contract.

The paper's evaluation is eight separate experiments, each historically a
free function with its own signature.  This module fronts all of them with
one API::

    from repro.experiments import run_experiment

    run_experiment("coexistence", scheme="ecc", location="B", seed=3)
    run_experiment("signaling", power_dbm=-1.0, n_salvos=50)
    run_experiment("ble", afh_enabled=False)

Each :class:`ExperimentSpec` binds a name to a runner, its parameter
dataclass (``config_cls``) and its result dataclass (``result_cls``).  The
uniform call contract is ``runner(config, seed, calibration) -> result``:
parameters come from the config object, and the seed/calibration always
travel separately so sweeps can grid over them without knowing anything
about the individual experiment.

The registry is the single source of truth for the CLI (``bicord-sim
sweep --experiment <name>``) and the sweep engine
(:mod:`repro.experiments.sweep`), which also uses ``config_cls`` to resolve
partial parameter dicts to fully-defaulted configs for cache hashing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, get_type_hints

from ..serialization import decode, from_dict
from .ble_extension import BleCoexistenceResult, BleTrialConfig, run_ble_coexistence
from .cti_dataset import (
    CtiAccuracyResult,
    CtiTrialConfig,
    DeviceIdResult,
    DeviceIdTrialConfig,
    run_cti_accuracy,
    run_device_identification,
)
from .runner import (
    CoexistenceConfig,
    EnergyResult,
    EnergyTrialConfig,
    LearningTrialConfig,
    LearningTrialResult,
    PriorityResult,
    PriorityTrialConfig,
    SignalingTrialConfig,
    SignalingTrialResult,
    run_coexistence,
    run_energy_trial,
    run_learning_trial,
    run_priority_experiment,
    run_signaling_trial,
)
from .metrics import CoexistenceResult
from .result import check_result_contract
from .roaming import RoamingResult, RoamingTrialConfig, run_roaming_trial
from .robustness import RobustnessResult, RobustnessTrialConfig, run_robustness_trial
from .scenario import ScenarioResult, ScenarioTrialConfig, run_scenario_trial
from .topology import Calibration


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: name, runner, and its config/result types."""

    name: str
    runner: Callable[..., Any]
    config_cls: type
    result_cls: type
    description: str = ""
    aliases: Tuple[str, ...] = ()

    def param_names(self) -> Tuple[str, ...]:
        return tuple(field.name for field in dataclasses.fields(self.config_cls))

    def make_config(self, config: Any = None, **params: Any):
        """Resolve (config, **params) to a fully-populated config instance.

        ``config`` may be an instance of ``config_cls``, a plain dict, or
        None; ``params`` are field overrides applied on top.  Dicts and
        param values decode strictly against their field types
        (:func:`repro.serialization.decode`: an int in a float field becomes
        a float, an ill-typed value raises ``SpecError``).  Unknown
        parameter names raise ``TypeError`` loudly.
        """
        if config is None:
            config = self.config_cls()
        elif isinstance(config, dict):
            config = from_dict(self.config_cls, config)
        elif not isinstance(config, self.config_cls):
            raise TypeError(
                f"experiment {self.name!r} expects a {self.config_cls.__name__} "
                f"config, got {type(config).__name__}"
            )
        if params:
            valid = set(self.param_names())
            unknown = sorted(set(params) - valid)
            if unknown:
                raise TypeError(
                    f"unknown parameter(s) {unknown} for experiment "
                    f"{self.name!r}; valid: {sorted(valid)}"
                )
            hints = get_type_hints(self.config_cls)
            config = dataclasses.replace(config, **{
                key: decode(hints[key], value, key) for key, value in params.items()
            })
        return config


#: Canonical name -> spec.  Populated by :func:`register` below.
EXPERIMENTS: Dict[str, ExperimentSpec] = {}
_ALIASES: Dict[str, str] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (also wiring its aliases).

    Every registered result class must satisfy the
    :data:`~repro.experiments.result.RESULT_CONTRACT` — the sweep cache,
    the campaign runner, and ``repro.api`` all rely on it.
    """
    check_result_contract(spec.result_cls)
    EXPERIMENTS[spec.name] = spec
    for alias in spec.aliases:
        _ALIASES[alias] = spec.name
    return spec


def canonical_name(name: str) -> str:
    """Normalize a user-supplied experiment name ('Device_ID' -> 'device-id')."""
    key = name.strip().lower().replace("_", "-")
    return _ALIASES.get(key, key)


def get_experiment(name: str) -> ExperimentSpec:
    """Look up a spec by (canonicalized) name; KeyError lists what exists."""
    key = canonical_name(name)
    try:
        return EXPERIMENTS[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        ) from None


def experiment_names() -> Tuple[str, ...]:
    """All registered canonical names, sorted."""
    return tuple(sorted(EXPERIMENTS))


def resolve_config(name: str, config: Any = None, **params: Any):
    """Build the fully-defaulted config object an experiment would run with."""
    return get_experiment(name).make_config(config=config, **params)


def run_experiment(
    name: str,
    *,
    config: Any = None,
    seed: Optional[int] = None,
    calibration: Optional[Calibration] = None,
    telemetry: Any = None,
    **params: Any,
):
    """Run any registered experiment through the uniform contract.

    ``params`` are fields of the experiment's config dataclass (see
    ``get_experiment(name).param_names()``); ``seed`` and ``calibration``
    are universal and handled identically for every experiment.

    ``telemetry`` is an optional :class:`repro.telemetry.MetricsRegistry`;
    when given, the runner executes inside a collection scope so every
    simulation context it builds reports into that registry.  ``None``
    (the default) leaves telemetry exactly as the caller scoped it —
    usually off, which is the zero-cost pre-telemetry code path.
    """
    spec = get_experiment(name)
    cfg = spec.make_config(config=config, **params)
    if telemetry is None:
        return spec.runner(cfg, seed, calibration)
    from ..telemetry import collect

    with collect(telemetry):
        return spec.runner(cfg, seed, calibration)


# ----------------------------------------------------------------------
# The paper's eight experiments
# ----------------------------------------------------------------------
register(ExperimentSpec(
    name="signaling",
    runner=run_signaling_trial,
    config_cls=SignalingTrialConfig,
    result_cls=SignalingTrialResult,
    description="cross-technology signaling precision/recall (Tables I-II)",
    aliases=("signalling",),
))
register(ExperimentSpec(
    name="coexistence",
    runner=run_coexistence,
    config_cls=CoexistenceConfig,
    result_cls=CoexistenceResult,
    description="scheme comparison: utilization/delay/throughput (Figs. 10-12)",
    aliases=("coexist",),
))
register(ExperimentSpec(
    name="learning",
    runner=run_learning_trial,
    config_cls=LearningTrialConfig,
    result_cls=LearningTrialResult,
    description="white-space learning convergence (Figs. 7-9)",
))
register(ExperimentSpec(
    name="priority",
    runner=run_priority_experiment,
    config_cls=PriorityTrialConfig,
    result_cls=PriorityResult,
    description="prioritized Wi-Fi traffic (Fig. 13)",
))
register(ExperimentSpec(
    name="energy",
    runner=run_energy_trial,
    config_cls=EnergyTrialConfig,
    result_cls=EnergyResult,
    description="signaling energy overhead vs clear channel (Sec. VII-B)",
))
register(ExperimentSpec(
    name="cti",
    runner=run_cti_accuracy,
    config_cls=CtiTrialConfig,
    result_cls=CtiAccuracyResult,
    description="interferer classification accuracy (Sec. VII-A)",
))
register(ExperimentSpec(
    name="device-id",
    runner=run_device_identification,
    config_cls=DeviceIdTrialConfig,
    result_cls=DeviceIdResult,
    description="Wi-Fi transmitter identification (Sec. VII-A)",
    aliases=("device-identification", "deviceid"),
))
register(ExperimentSpec(
    name="robustness",
    runner=run_robustness_trial,
    config_cls=RobustnessTrialConfig,
    result_cls=RobustnessResult,
    description="PRR/latency degradation under injected coordination faults",
    aliases=("faults", "fault-injection"),
))
register(ExperimentSpec(
    name="scenario",
    runner=run_scenario_trial,
    config_cls=ScenarioTrialConfig,
    result_cls=ScenarioResult,
    description="run any library scenario (repro.scenarios) by name",
    aliases=("scenarios",),
))
register(ExperimentSpec(
    name="roaming",
    runner=run_roaming_trial,
    config_cls=RoamingTrialConfig,
    result_cls=RoamingResult,
    description="multi-AP handoff churn vs coexistence quality (mobility)",
    aliases=("roam",),
))
register(ExperimentSpec(
    name="ble",
    runner=run_ble_coexistence,
    config_cls=BleTrialConfig,
    result_cls=BleCoexistenceResult,
    description="ZigBee/BLE spectral coexistence extension (Sec. VII-D)",
))
