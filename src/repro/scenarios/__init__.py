"""Declarative scenario subsystem: spec -> compiler -> running simulation.

``repro.scenarios`` turns coexistence deployments into data: a
:class:`ScenarioSpec` describes devices, placements, traffic, the
coordination scheme, mobility, and an optional fault plan; the compiler
builds a ready simulation from spec + seed; procedural generators emit
dense deployments; and a registry exposes a built-in library (office,
smart-home, dense-office, mobile-workshop, priority-streaming, grid,
random-uniform, clustered, vehicular-corridor, campus-roaming) to the
experiment registry, the sweep engine (cache keyed on the spec
fingerprint), and the CLI (``repro scenario list|describe|run``).
"""

from ..experiments.scenario import (
    LinkResult,
    ScenarioResult,
    ScenarioTrialConfig,
    WifiLinkResult,
    run_scenario_trial,
)
from .compiler import CompiledScenario, compile_scenario
from .generators import TRAFFIC_PROFILES, clustered, grid, random_uniform
from .library import (
    SCENARIOS,
    ScenarioEntry,
    campus_roaming,
    get_scenario,
    get_scenario_entry,
    register_scenario,
    scenario_names,
    vehicular_corridor,
)
from .spec import (
    TRAJECTORY_MODELS,
    ApSpec,
    BurstTrafficSpec,
    CoordinatorSpec,
    MobilitySpec,
    RoamingSpec,
    ScenarioSpec,
    SpecError,
    WifiLinkSpec,
    WifiTrafficSpec,
    ZigbeeLinkSpec,
    load_spec,
    round_position,
    spec_from_dict,
)

__all__ = [
    "ApSpec",
    "BurstTrafficSpec",
    "CompiledScenario",
    "CoordinatorSpec",
    "LinkResult",
    "MobilitySpec",
    "RoamingSpec",
    "SCENARIOS",
    "ScenarioEntry",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioTrialConfig",
    "SpecError",
    "TRAFFIC_PROFILES",
    "TRAJECTORY_MODELS",
    "WifiLinkResult",
    "WifiLinkSpec",
    "WifiTrafficSpec",
    "ZigbeeLinkSpec",
    "campus_roaming",
    "clustered",
    "compile_scenario",
    "get_scenario",
    "get_scenario_entry",
    "grid",
    "load_spec",
    "random_uniform",
    "register_scenario",
    "round_position",
    "run_scenario_trial",
    "scenario_names",
    "spec_from_dict",
    "vehicular_corridor",
]
