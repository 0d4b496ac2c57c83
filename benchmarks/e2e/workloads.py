"""The benchmark's workloads, built only from the program's public entry points.

A workload runs in passes.  A pass runs one trial of each of the workload's
trial kinds (an office scheme, a library scenario, ...) at the pass's
simulation seed.  One trial builds its simulation from scratch, runs it,
checks the invariants of its output and returns the output that is pinned:
the trace digest of a scenario run, or the exact accuracies of a CTI
campaign.  Every input is derived from the benchmark seed, and no trial
caps a run with ``max_events``, so a trial always does the same work.

Passes cycle through :data:`SEEDS_PER_RUN` simulation seeds, because the
work of one trial depends on its seed: the grace drain of an office run and
the shadowing field of a dense grid change the event count or the
notification fan-out by 10-25%.  Why each workload was chosen is written in
``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

from repro import scenarios
from repro.experiments import cti_dataset

#: What a trial returns for pinning: a trace digest or a list of accuracies.
Outcome = Union[str, List[float]]

#: Distinct simulation seeds one benchmark seed cycles through.
SEEDS_PER_RUN = 8


class TrialError(Exception):
    """A trial ran to the end but its output broke an invariant."""


@dataclass(frozen=True)
class Trial:
    #: What the trial runs; timings are aggregated per kind.
    kind: str
    #: The kind and its simulation seed; outputs are pinned per key.
    key: str
    run: Callable[[], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated seconds, from t=0 of every simulator a trial builds, that
    #: are timed as warm-up (lazy link-state construction happens there).
    warmup_sim_s: float
    #: Pass index -> the trials of that pass.
    passes: Callable[[int], Tuple[Trial, ...]]


def sim_seed(seed: int, pass_index: int) -> int:
    """The simulation seed of one pass; disjoint across benchmark seeds."""
    return seed * SEEDS_PER_RUN + pass_index % SEEDS_PER_RUN + 1


OFFICE_SCHEMES = ("bicord", "ecc", "csma", "slow-ctc", "predictive")
ROAMING_SCENARIOS = ("campus-roaming", "vehicular-corridor")
#: CTI traces collected per source setting (the paper collected 200).
CTI_TRACES = 200
#: The dense grid: 200 ZigBee links and 40 Wi-Fi pairs, 480 radios.
DENSE_GRID = dict(n_zigbee_links=200, n_wifi_pairs=40, duration=0.2)


def check_scenario(spec, result) -> None:
    """Packet accounting balances and the clock stopped inside the run window."""
    for link in result.links.values():
        if link.delivered > link.offered:
            raise TrialError(
                f"ZigBee link {link.name}: delivered {link.delivered} > offered {link.offered}"
            )
    for link in result.wifi.values():
        if link.delivered > link.sent:
            raise TrialError(
                f"Wi-Fi link {link.name}: delivered {link.delivered} > sent {link.sent}"
            )
    if not spec.duration <= result.duration <= spec.duration + spec.grace:
        raise TrialError(
            f"run ended at t={result.duration}, outside "
            f"[{spec.duration}, {spec.duration + spec.grace}]"
        )


def scenario_trial(kind: str, spec, seed: int) -> Trial:
    """Compile ``spec`` at ``seed``, run it to its horizon, return its digest."""

    def run() -> Outcome:
        compiled = scenarios.compile_scenario(spec, seed)
        result = compiled.run()
        check_scenario(spec, result)
        return result.trace_digest

    return Trial(kind, f"{kind}/s{seed}", run)


def cti_trial(seed: int, n_traces: int = CTI_TRACES) -> Trial:
    """The Sec. VII-A campaign: interferer classification and device identification."""

    def run() -> Outcome:
        cti = cti_dataset.run_cti_accuracy(
            cti_dataset.CtiTrialConfig(n_traces=n_traces), seed=seed
        )
        ident = cti_dataset.run_device_identification(
            cti_dataset.DeviceIdTrialConfig(n_traces=n_traces), seed=seed
        )
        # Five source settings split half/half; three Wi-Fi transmitters.
        if cti.n_train + cti.n_test != 5 * n_traces or ident.n_traces != 3 * n_traces:
            raise TrialError(
                f"trace counts {cti.n_train}+{cti.n_test}, {ident.n_traces} "
                f"for n_traces={n_traces}"
            )
        accuracies = [cti.wifi_detection_accuracy, cti.multiclass_accuracy, ident.accuracy]
        if not all(0.0 <= a <= 1.0 for a in accuracies):
            raise TrialError(f"accuracy outside [0, 1]: {accuracies}")
        return accuracies

    return Trial("cti", f"cti/s{seed}", run)


def office(seed: int) -> Workload:
    """Fig. 6 office at the library defaults, every coordination scheme."""
    specs = {scheme: scenarios.get_scenario("office", scheme=scheme) for scheme in OFFICE_SCHEMES}
    return Workload("office", 0.5, lambda p: tuple(
        scenario_trial(scheme, spec, sim_seed(seed, p)) for scheme, spec in specs.items()
    ))


def roaming(seed: int) -> Workload:
    """The library's two moving-topology scenarios at their defaults."""
    specs = {name: scenarios.get_scenario(name) for name in ROAMING_SCENARIOS}
    return Workload("roaming", 0.5, lambda p: tuple(
        scenario_trial(name, spec, sim_seed(seed, p)) for name, spec in specs.items()
    ))


def cti(seed: int) -> Workload:
    """The CTI collection campaign."""
    return Workload("cti", 0.05, lambda p: (cti_trial(sim_seed(seed, p)),))


def dense(seed: int) -> Workload:
    """A dense generated grid; no grace drain, so every trial ends at its horizon."""
    spec = dataclasses.replace(scenarios.get_scenario("grid", **DENSE_GRID), grace=0.0)
    return Workload("dense", 0.05, lambda p: (scenario_trial("grid", spec, sim_seed(seed, p)),))


WORKLOADS: Dict[str, Callable[[int], Workload]] = {
    "office": office,
    "roaming": roaming,
    "cti": cti,
    "dense": dense,
}
