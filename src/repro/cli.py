"""Command-line interface: run BiCord scenarios without writing code.

Examples::

    python -m repro.cli coexist --scheme bicord --location A --bursts 30
    python -m repro.cli coexist --scheme ecc --seeds 4 --jobs 4
    python -m repro.cli signaling --location C --power -1 --packets 4
    python -m repro.cli learning --packets 10 --step 30
    python -m repro.cli cti
    python -m repro.cli priority --proportion 0.3 --scheme bicord
    python -m repro.cli energy
    python -m repro.cli ble --no-afh
    python -m repro.cli sweep --experiment coexistence \
        --param scheme=bicord,ecc --param location=A,B --seeds 2 --jobs 4
    python -m repro.cli sweep --list
    python -m repro.cli list
    python -m repro.cli scenario list
    python -m repro.cli scenario describe dense-office
    python -m repro.cli scenario run dense-office --seed 0
    python -m repro.cli scenario run grid --set n_zigbee_links=9 --seeds 3

Every subcommand dispatches through the experiment registry
(:mod:`repro.experiments.registry`) and prints a small table of the metrics
the paper reports for that scenario.  The per-experiment subcommands
(``coexist``, ``signaling``, ``learning``, ``cti``, ``priority``,
``energy``, ``ble`` and ``scenario run``) are one table,
:data:`EXPERIMENT_COMMANDS`, and share one run path: their trials go
through the sweep engine for seeds ``seed..seed+N-1``, whether N is 1 or
more, so ``--jobs``, ``--metrics-out`` and the on-disk trial cache
(``~/.cache/bicord/sweeps`` or ``$BICORD_SWEEP_CACHE``; ``--cache-dir``,
``--no-cache``) mean the same thing on each of them.  ``sweep`` fans a
whole parameter grid out across worker processes; re-running the same
sweep re-executes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import telemetry
from .experiments import (
    CoexistenceConfig,
    ScenarioTrialConfig,
    SweepEngine,
    comparison_table,
    experiment_names,
    format_table,
    get_experiment,
)
from .experiments.sweep import TrialRecord
from .log import configure as configure_logging
from .mobility import ap_selection_policy_names
from .scenarios import get_scenario_entry, scenario_names
from .schemes import scheme_names
from .serialization import dumps, loads, to_dict


class CommandError(Exception):
    """Input a subcommand cannot use; ``main`` prints it and exits 2."""


def _print(title: str, rows, headers=("metric", "value")) -> None:
    print(format_table(headers, rows, title=title, float_format="{:.4f}"))


# ----------------------------------------------------------------------
# Sweep plumbing shared by the subcommands
# ----------------------------------------------------------------------
def _make_engine(args: argparse.Namespace, progress=None) -> SweepEngine:
    return SweepEngine(
        jobs=getattr(args, "jobs", 1),
        cache_dir=getattr(args, "cache_dir", None),
        cache=not getattr(args, "no_cache", False),
        progress=progress,
        telemetry=bool(getattr(args, "metrics_out", None)),
        quiet=getattr(args, "quiet", False),
    )


def _seed_range(args: argparse.Namespace) -> range:
    return range(args.seed, args.seed + args.seeds)


def _sweep_stats_line(run) -> str:
    return (
        f"{len(run.records)} trials: {run.executed} executed, "
        f"{run.cached_hits} cached, {run.elapsed:.2f} s wall (jobs={run.jobs})"
    )


def _emit_telemetry(
    args: argparse.Namespace,
    experiment: str,
    snapshot: Optional[Dict[str, Any]] = None,
    config: Any = None,
    seeds: Sequence[int] = (),
    calibration: Any = None,
    faults: Any = None,
    wall_time: float = 0.0,
    headline: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
    scenario: str = "",
    scenario_fingerprint: str = "",
) -> None:
    """Write the metrics file and print the report's telemetry section."""
    manifest = telemetry.build_manifest(
        experiment, config=config, seeds=seeds, calibration=calibration,
        faults=faults, wall_time_s=wall_time, metrics=headline, extra=extra,
        scenario=scenario, scenario_fingerprint=scenario_fingerprint,
    )
    lines = telemetry.export(args.metrics_out, manifest=manifest, snapshot=snapshot)
    snap = snapshot or {}
    rows: List[List[Any]] = []
    for name, value in snap.get("counters", {}).items():
        rows.append([name, "counter", float(value)])
    for name, value in snap.get("gauges", {}).items():
        rows.append([name, "gauge", value])
    for name, data in snap.get("histograms", {}).items():
        rows.append([name, "histogram", float(data["count"])])
    for name, data in snap.get("spans", {}).items():
        rows.append([f"{name} (wall s)", "span", data["total_s"]])
    if rows:
        _print("telemetry", rows, headers=("metric", "kind", "value"))
    print(f"telemetry: manifest + {lines} metric line(s) -> {args.metrics_out}")


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _parse_scalar(text: str) -> Any:
    """CLI value -> int / float / bool / str (first parse that fits)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_param(option: str) -> Dict[str, List[Any]]:
    """``KEY=V1[,V2...]`` -> {key: values}; an ``A:B`` value is a range."""
    if "=" not in option:
        raise CommandError(f"--param expects KEY=VALUE[,VALUE...], got {option!r}")
    key, _, values = option.partition("=")
    return {key.strip(): _expand_range_values(
        [_parse_scalar(v) for v in values.split(",") if v != ""]
    )}


def _parse_assignments(options: Optional[Sequence[str]], flag: str) -> Dict[str, Any]:
    """Repeated ``KEY=VALUE`` options -> {key: scalar}."""
    params: Dict[str, Any] = {}
    for option in options or []:
        if "=" not in option:
            raise CommandError(f"{flag} expects KEY=VALUE, got {option!r}")
        key, _, value = option.partition("=")
        params[key.strip()] = _parse_scalar(value)
    return params


def _expand_range_values(values: List[Any]) -> List[Any]:
    """Expand 'A:B' items into the half-open int range A..B-1.

    Sweep and campaign grids routinely span hundreds of values per axis
    (e.g. ``placement_seed=0:100``); listing them comma-separated is hopeless.
    Non-range items pass through untouched, so ``control:0.3``-style
    strings still parse as plain values.
    """
    out: List[Any] = []
    for value in values:
        if isinstance(value, str) and value.count(":") == 1:
            lo, _, hi = value.partition(":")
            try:
                out.extend(range(int(lo), int(hi)))
                continue
            except ValueError:
                pass
        out.append(value)
    return out


def _experiment_table() -> str:
    rows = []
    for name in experiment_names():
        spec = get_experiment(name)
        rows.append([name, spec.description, ", ".join(spec.param_names())])
    return format_table(
        ["experiment", "description", "parameters"], rows,
        title="registered experiments",
    )


def _scenario_table() -> str:
    rows = []
    for name in scenario_names():
        entry = get_scenario_entry(name)
        rows.append([name, entry.description, ", ".join(entry.param_names)])
    return format_table(
        ["scenario", "description", "parameters"], rows,
        title="registered scenarios",
    )


# ----------------------------------------------------------------------
# Experiment subcommands: one table, one run path
# ----------------------------------------------------------------------
@dataclass
class Plan:
    """The trials an experiment subcommand runs, for each of its seeds.

    The first trial names the run in the telemetry manifest, and its
    params are the manifest's ``config`` unless ``manifest`` (further
    :func:`repro.telemetry.build_manifest` fields) overrides it.
    """

    title: str
    trials: List[Tuple[str, Dict[str, Any]]]
    seed: int
    calibration: Any = None
    manifest: Dict[str, Any] = field(default_factory=dict)


Rows = List[Tuple[str, float]]


def _print_injected_faults(result) -> None:
    injected = {k: v for k, v in result.extra.items() if k.startswith("fault_")}
    if injected:
        print("injected faults: " + ", ".join(
            f"{name[len('fault_'):]}={int(count)}" for name, count in sorted(injected.items())
        ))


def _print_trajectory(result) -> None:
    trajectory = ", ".join(f"{g * 1e3:.0f}" for g in result.trajectory[:20])
    print(f"trajectory (ms): {trajectory}")


def _print_scenario_links(result) -> None:
    link_rows = [
        [link.name, float(link.offered), float(link.delivered),
         link.delivery_ratio, link.mean_delay * 1e3, float(link.control_packets)]
        for link in result.links.values()
    ]
    if link_rows:
        _print(
            "zigbee links", link_rows,
            headers=("link", "offered", "delivered", "ratio",
                     "mean delay (ms)", "ctrl pkts"),
        )
    wifi_rows = [
        [link.name, float(link.sent), float(link.delivered), link.prr]
        for link in result.wifi.values()
    ]
    if wifi_rows:
        _print("wifi links", wifi_rows, headers=("link", "sent", "delivered", "prr"))
    if "roam_handoffs" in result.extra:
        _print(
            "roaming",
            [[result.extra.get("roam_handoffs", 0.0),
              result.extra.get("roam_pingpongs", 0.0),
              result.extra.get("roam_scans", 0.0),
              result.extra.get("roam_gap_ms", 0.0)]],
            headers=("handoffs", "pingpongs", "scans", "gap (ms)"),
        )
    print(f"spec fingerprint: {result.spec_fingerprint}")


#: Registered experiment -> (one result -> labelled rows, which the table
#: averages over the seeds; printer of a single-seed run's breakdown).
REPORTS: Dict[str, Tuple[Callable[[Any], Rows], Optional[Callable[[Any], None]]]] = {
    "coexistence": (lambda r: [
        ("channel utilization", r.channel_utilization),
        ("zigbee utilization", r.zigbee_utilization),
        ("wifi utilization", r.wifi_utilization),
        ("mean zigbee delay (ms)", r.mean_delay * 1e3),
        ("p95 zigbee delay (ms)", r.p95_delay * 1e3),
        ("zigbee throughput (kbps)", r.zigbee_throughput_bps / 1e3),
        ("delivery ratio", r.delivery_ratio),
        ("control packets", r.control_packets),
        ("white spaces issued", r.whitespaces_issued),
    ], _print_injected_faults),
    "signaling": (lambda r: [
        ("precision", r.pr.precision),
        ("recall", r.pr.recall),
        ("true positives", r.pr.true_positives),
        ("false positives", r.pr.false_positives),
        ("wifi PRR during trial", r.wifi_prr),
    ], None),
    "learning": (lambda r: [
        ("converged", r.converged),
        ("iterations", r.iterations),
        ("final white space (ms)", r.final_whitespace * 1e3),
        ("burst airtime (ms)", r.burst_airtime * 1e3),
    ], _print_trajectory),
    "cti": (lambda r: [
        ("wifi detection accuracy (paper 0.9639)", r.wifi_detection_accuracy),
        ("multiclass accuracy", r.multiclass_accuracy),
    ], None),
    "device-id": (lambda r: [
        ("device identification (paper 0.8976)", r.accuracy),
    ], None),
    "priority": (lambda r: [
        ("channel utilization", r.utilization),
        ("zigbee utilization", r.zigbee_utilization),
        ("low-priority wifi delay (ms)", r.low_priority_wifi_delay * 1e3),
        ("high-priority wifi delay (ms)", r.high_priority_wifi_delay * 1e3),
        ("zigbee mean delay (ms)", r.zigbee_mean_delay * 1e3),
    ], None),
    "energy": (lambda r: [
        ("bicord under wifi (mJ)", r.bicord_mj),
        ("clear channel (mJ)", r.clear_channel_mj),
        ("overhead (%)", r.overhead_fraction * 100.0),
        ("control packets", r.control_packets),
    ], None),
    "ble": (lambda r: [
        ("ble event success rate", r.ble_success_rate),
        ("ble late-window success", r.ble_late_success_rate),
        ("excluded channels", len(r.excluded_channels)),
        ("zigbee delivery ratio", r.zigbee_delivery_ratio),
        ("zigbee mean delay (ms)", r.zigbee_mean_delay * 1e3),
    ], None),
    "scenario": (lambda r: list(r.summary().items()), _print_scenario_links),
}


def _run_plan(args: argparse.Namespace, plan: Plan) -> int:
    """Run a plan's trials through the sweep engine and report them.

    One path for every seed count: the table holds each labelled row's
    mean over the seeds, and a single-seed run adds each experiment's
    breakdown.
    """
    engine = _make_engine(args)
    seeds = range(plan.seed, plan.seed + args.seeds)
    runs = [
        engine.run_trials(experiment, [params], seeds=seeds, calibration=plan.calibration)
        for experiment, params in plan.trials
    ]
    per_seed = [
        [row for run in runs for row in REPORTS[run.experiment][0](run.results[index])]
        for index in range(len(seeds))
    ]
    title = plan.title
    if len(seeds) > 1:
        title += f" (mean over {len(seeds)} seeds)"
    _print(title, [
        [label, _mean([rows[index][1] for rows in per_seed])]
        for index, (label, _) in enumerate(per_seed[0])
    ])
    for run in runs:
        detail = REPORTS[run.experiment][1]
        if detail is not None and len(seeds) == 1:
            detail(run.results[0])
    for run in runs:
        print(_sweep_stats_line(run))
    if args.metrics_out:
        headline: Dict[str, float] = {}
        for run in runs:
            per_trial = [result.metrics() for result in run.results]
            headline.update(
                {name: _mean([m[name] for m in per_trial]) for name in per_trial[0]}
            )
        experiment, params = plan.trials[0]
        _emit_telemetry(
            args, experiment,
            snapshot=telemetry.merge_snapshots([run.telemetry for run in runs]),
            seeds=seeds, calibration=plan.calibration,
            wall_time=sum(run.elapsed for run in runs), headline=headline,
            **{"config": params, **plan.manifest},
        )
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one :data:`EXPERIMENT_COMMANDS` subcommand."""
    plan = args.plan(args)
    return 0 if plan is None else _run_plan(args, plan)


def _load_json(flag: str, cls: type, path: str):
    """Decode a ``cls`` from the JSON file a flag names; CommandError if unusable."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return loads(cls, text)
    except ValueError as exc:  # SpecError or malformed JSON
        raise CommandError(f"{flag} {path}: {exc}") from None


def _load_fault_plan(path: str):
    """Load a FaultPlan from a JSON file of field overrides."""
    from .faults import FaultPlan

    return _load_json("--faults", FaultPlan, path)


def _scenario_config(name: str, params: Dict[str, Any], **overrides: Any):
    """A library scenario trial; CommandError when the scenario does not resolve."""
    try:
        return ScenarioTrialConfig(scenario=name, params=params, **overrides)
    except (KeyError, TypeError, ValueError) as exc:
        raise CommandError(*exc.args) from None


def _scenario_plan(args: argparse.Namespace, cfg: ScenarioTrialConfig) -> Plan:
    return Plan(
        f"scenario: {cfg.scenario} ({cfg.resolve_spec().coordinator.scheme})",
        [("scenario", to_dict(cfg))], args.seed,
        manifest=dict(scenario=cfg.scenario, scenario_fingerprint=cfg.spec_fingerprint),
    )


def _coexist_plan(args: argparse.Namespace) -> Optional[Plan]:
    if args.scenario:
        try:
            entry = get_scenario_entry(args.scenario)
        except KeyError as exc:
            raise CommandError(*exc.args) from None
        if args.faults:
            raise CommandError(
                "--faults (a FaultPlan file) does not combine with "
                "--scenario; use `repro scenario run --fault-plan NAME`"
            )
        # Forward only the coexist knobs the scenario factory understands.
        params = {
            key: getattr(args, key)
            for key in ("scheme", "location", "mobility")
            if key in entry.param_names
        }
        return _scenario_plan(args, _scenario_config(entry.name, params))
    if args.config:
        config = _load_json("--config", CoexistenceConfig, args.config)
        if args.faults:
            config = dataclasses.replace(config, faults=_load_fault_plan(args.faults))
    else:
        config = CoexistenceConfig(
            scheme=args.scheme,
            location=args.location,
            seed=args.seed,
            burst_packets=args.packets,
            payload_bytes=args.payload,
            burst_interval=args.interval,
            poisson=not args.periodic,
            n_bursts=args.bursts,
            ecc_whitespace=args.ecc_whitespace * 1e-3,
            mobility=args.mobility,
            faults=_load_fault_plan(args.faults) if args.faults else None,
        )
    if args.dump_config:
        print(dumps(config))
        return None
    # The config's own seed leads the seeds, so a replayed --config file
    # runs the trial it was dumped from.
    params = to_dict(config)
    del params["seed"], params["calibration"]
    return Plan(
        f"coexistence: {config.scheme} at location {config.location}",
        [("coexistence", params)], config.seed, calibration=config.calibration,
        manifest=dict(config=config, faults=config.faults),
    )


Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def _flag(*names: str, **options: Any) -> Flag:
    """One ``add_argument(*names, **options)`` call, as a table cell."""
    return names, options


_LOCATION = _flag("--location", choices="ABCD", default="A")


@dataclass(frozen=True)
class ExperimentCommand:
    """One per-experiment subcommand: its help, its flags and its plan.

    ``plan`` turns the parsed arguments into a :class:`Plan`, or answers
    by itself and returns ``None`` (as ``coexist --dump-config`` does).
    """

    help: str
    flags: Tuple[Flag, ...]
    plan: Callable[[argparse.Namespace], Optional[Plan]]


EXPERIMENT_COMMANDS: Dict[str, ExperimentCommand] = {
    "coexist": ExperimentCommand(
        "one coexistence run (Fig. 10/11 style)",
        (
            _LOCATION,
            _flag("--scheme", choices=scheme_names(), default="bicord"),
            _flag("--bursts", type=int, default=30),
            _flag("--packets", type=int, default=5),
            _flag("--payload", type=int, default=50),
            _flag("--interval", type=float, default=0.2,
                  help="mean burst interval in seconds"),
            _flag("--periodic", action="store_true",
                  help="fixed intervals instead of Poisson"),
            _flag("--ecc-whitespace", type=float, default=20.0,
                  help="ECC white space in ms"),
            _flag("--mobility", choices=("none", "person", "device"),
                  default="none"),
            _flag("--config", metavar="FILE",
                  help="load the full CoexistenceConfig from a JSON file "
                       "(overrides the other options)"),
            _flag("--faults", metavar="FILE",
                  help="JSON file of FaultPlan fields to inject "
                       "(e.g. {\"detection_fn_rate\": 0.2})"),
            _flag("--dump-config", action="store_true",
                  help="print the effective config as JSON and exit"),
            _flag("--scenario", default=None, metavar="NAME",
                  help="run a library scenario instead of the standard "
                       "office workload (forwards scheme/location/mobility "
                       "when the scenario accepts them)"),
        ),
        _coexist_plan,
    ),
    "signaling": ExperimentCommand(
        "precision/recall trial (Tables I-II)",
        (
            _LOCATION,
            _flag("--power", type=float, default=0.0),
            _flag("--packets", type=int, default=4),
            _flag("--salvos", type=int, default=100),
        ),
        lambda args: Plan(
            f"signaling: location {args.location}, {args.power:+.0f} dBm, "
            f"{args.packets} control packets",
            [("signaling", dict(location=args.location, power_dbm=args.power,
                                n_control_packets=args.packets,
                                n_salvos=args.salvos))],
            args.seed,
        ),
    ),
    "learning": ExperimentCommand(
        "white-space learning (Figs. 7-9)",
        (
            _LOCATION,
            _flag("--packets", type=int, default=10),
            _flag("--step", type=float, default=30.0, help="initial step in ms"),
            _flag("--bursts", type=int, default=14),
        ),
        lambda args: Plan(
            f"white-space learning: {args.packets}-packet bursts, "
            f"{args.step:.0f} ms step",
            [("learning", dict(n_packets=args.packets, step=args.step * 1e-3,
                               location=args.location, n_bursts=args.bursts))],
            args.seed,
        ),
    ),
    "cti": ExperimentCommand(
        "CTI detection accuracy (Sec. VII-A)",
        (_flag("--traces", type=int, default=60),),
        lambda args: Plan(
            "CTI detection",
            [("cti", {"n_traces": args.traces}),
             ("device-id", {"n_traces": args.traces})],
            args.seed,
        ),
    ),
    "priority": ExperimentCommand(
        "prioritized Wi-Fi traffic (Fig. 13)",
        (
            _flag("--scheme", choices=scheme_names(honors_priority=True),
                  default="bicord"),
            _flag("--proportion", type=float, default=0.3),
            _flag("--duration", type=float, default=6.0),
        ),
        lambda args: Plan(
            f"priority traffic: {args.scheme}, "
            f"high-priority share {args.proportion}",
            [("priority", {"scheme": args.scheme,
                           "high_proportion": args.proportion,
                           "total_duration": args.duration})],
            args.seed,
        ),
    ),
    "energy": ExperimentCommand(
        "energy overhead (Sec. VII-B)",
        (_flag("--bursts", type=int, default=8),),
        lambda args: Plan(
            "energy overhead (paper: 10-21%)",
            [("energy", {"n_bursts": args.bursts})],
            args.seed,
        ),
    ),
    "ble": ExperimentCommand(
        "ZigBee/BLE extension (Sec. VII-D)",
        (
            _flag("--duration", type=float, default=10.0),
            _flag("--afh", dest="afh", action="store_true", default=True),
            _flag("--no-afh", dest="afh", action="store_false"),
        ),
        lambda args: Plan(
            f"ZigBee/BLE coexistence (AFH {'on' if args.afh else 'off'})",
            [("ble", {"afh_enabled": args.afh, "duration": args.duration})],
            args.seed,
        ),
    ),
}


# ----------------------------------------------------------------------
# Other subcommands
# ----------------------------------------------------------------------
def cmd_scenario(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(_scenario_table())
        return 0
    if not args.name:
        raise CommandError("scenario name required for 'describe' and 'run'")
    cfg = _scenario_config(
        args.name, _parse_assignments(args.set, "--set"),
        duration=args.duration, max_events=args.max_events,
        fault_plan=args.fault_plan,
    )
    if args.action == "run":
        return _run_plan(args, _scenario_plan(args, cfg))
    spec = cfg.resolve_spec()
    print(dumps(spec))
    print(f"fingerprint: {spec.fingerprint()}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print(_experiment_table())
    print()
    print(_scenario_table())
    return 0


def cmd_robustness(args: argparse.Namespace) -> int:
    from .experiments import robustness_curve

    rates = args.rates
    base = {
        "scheme": args.scheme,
        "location": args.location,
        "n_bursts": args.bursts,
    }
    if args.scenario:
        base["scenario"] = args.scenario
    points, run = robustness_curve(
        dimension=args.dimension,
        rates=rates,
        seeds=tuple(_seed_range(args)),
        base=base,
        engine=_make_engine(args),
        return_run=True,
    )
    rows = [
        [
            point["rate"], point["prr_mean"], point["prr_min"],
            point["mean_delay"] * 1e3, point["p95_delay"] * 1e3,
            point["throughput_bps"] / 1e3,
        ]
        for point in points
    ]
    workload = args.scenario if args.scenario else args.scheme
    _print(
        f"robustness: {workload} vs {args.dimension} faults "
        f"({args.seeds} seed(s) per rate)",
        rows,
        headers=("rate", "prr mean", "prr min", "mean delay (ms)",
                 "p95 delay (ms)", "throughput (kbps)"),
    )
    print(_sweep_stats_line(run))
    if args.metrics_out:
        _emit_telemetry(
            args, "robustness", snapshot=run.telemetry,
            config={"dimension": args.dimension, "rates": rates, **base},
            seeds=_seed_range(args), wall_time=run.elapsed,
            headline={f"prr@{p['rate']:g}": p["prr_mean"] for p in points},
            extra={"dimension": args.dimension, "rates": rates},
        )
    return 0


def cmd_roaming(args: argparse.Namespace) -> int:
    from .experiments import roaming_curve

    speeds, n_aps, schemes = args.speeds, args.aps, args.schemes
    if not speeds or not n_aps or not schemes:
        raise CommandError("--speeds, --aps and --schemes must be non-empty")
    base: Dict[str, Any] = {"scenario": args.scenario, "policy": args.policy}
    if args.duration is not None:
        base["duration"] = args.duration
    points, run = roaming_curve(
        speeds=speeds,
        n_aps=n_aps,
        schemes=schemes,
        seeds=tuple(_seed_range(args)),
        base=base,
        engine=_make_engine(args),
        return_run=True,
    )
    rows = [
        [
            point["speed_mps"], float(point["n_aps"]), point["scheme"],
            point["handoffs_mean"], point["pingpongs_mean"],
            point["gap_ms_mean"], point["wifi_prr_mean"], point["prr_mean"],
            point["mean_delay"] * 1e3,
        ]
        for point in points
    ]
    _print(
        f"roaming: {args.scenario} under {args.policy!r} "
        f"({args.seeds} seed(s) per point)",
        rows,
        headers=("speed (m/s)", "APs", "scheme", "handoffs", "pingpongs",
                 "gap (ms)", "wifi prr", "zigbee prr", "mean delay (ms)"),
    )
    print(_sweep_stats_line(run))
    if args.metrics_out:
        _emit_telemetry(
            args, "roaming", snapshot=run.telemetry,
            config={"speeds": speeds, "n_aps": n_aps, "schemes": schemes, **base},
            seeds=_seed_range(args), wall_time=run.elapsed,
            headline={
                f"handoffs@{p['speed_mps']:g}x{p['n_aps']}/{p['scheme']}":
                    p["handoffs_mean"]
                for p in points
            },
            extra={"scenario": args.scenario, "policy": args.policy},
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        print(_experiment_table())
        return 0
    if args.clear_cache:
        engine = _make_engine(args)
        removed = engine.clear_cache()
        print(f"cleared {removed} cache entries from {engine.cache_dir}")
        if not args.experiment:
            return 0
    if not args.experiment:
        raise CommandError("--experiment is required (or use --list / --clear-cache)")
    try:
        spec = get_experiment(args.experiment)
    except KeyError as exc:
        raise CommandError(*exc.args) from None

    grid: Dict[str, List[Any]] = {}
    for option in args.param or []:
        grid.update(_parse_param(option))
    unknown = sorted(set(grid) - set(spec.param_names()))
    if unknown:
        raise CommandError(
            f"unknown parameter(s) {unknown} for experiment "
            f"{spec.name!r}; valid: {sorted(spec.param_names())}"
        )

    def progress(record: TrialRecord, done: int, total: int) -> None:
        if args.quiet:
            return
        state = "cached " if record.cached else f"{record.elapsed:6.2f}s"
        params = " ".join(
            f"{k}={v}" for k, v in record.params.items() if k in grid
        )
        print(f"  [{done}/{total}] {state}  seed={record.seed} {params}".rstrip())

    from .experiments import SweepSpec

    try:
        engine = _make_engine(args, progress=progress)
        run = engine.run(SweepSpec(
            experiment=spec.name,
            grid=grid,
            seeds=tuple(_seed_range(args)),
        ))
    except ValueError as exc:
        raise CommandError(*exc.args) from None

    # One row per grid combination, metrics averaged over seeds.
    varying = [name for name in grid if len(grid[name]) > 1]
    combos: Dict[tuple, List[TrialRecord]] = {}
    for record in run.records:
        key = tuple(record.params[name] for name in varying)
        combos.setdefault(key, []).append(record)
    metric_names: List[str] = []
    for records in combos.values():
        for name in records[0].result.metrics():
            if name not in metric_names and name not in varying:
                metric_names.append(name)
    rows = []
    for key, records in combos.items():
        per_trial = [r.result.metrics() for r in records]
        rows.append(list(key) + [
            _mean([m.get(name, 0.0) for m in per_trial]) for name in metric_names
        ])
    headers = varying + metric_names
    print(format_table(
        headers, rows,
        title=f"sweep: {spec.name} ({args.seeds} seed(s) per combination)",
        float_format="{:.4f}",
    ))
    print(_sweep_stats_line(run))
    if engine.cache_enabled:
        print(f"cache: {engine.cache_dir}")
    if args.metrics_out:
        _emit_telemetry(
            args, spec.name, snapshot=run.telemetry,
            config={"grid": grid, "base": {}},
            seeds=_seed_range(args), wall_time=run.elapsed,
        )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from .experiments.campaign import CampaignError, CampaignRunner, CampaignSpec

    runner = CampaignRunner(
        args.dir,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        cache=not args.no_cache,
        quiet=args.quiet,
    )

    if args.action == "status":
        try:
            status = runner.status()
        except CampaignError as exc:
            raise CommandError(*exc.args) from None
        rows = [
            ["trials", float(status.total)],
            ["done", float(status.done)],
            ["remaining", float(status.remaining)],
        ]
        _print(f"campaign: {status.name} [{status.fingerprint[:12]}]", rows)
        return 0

    if args.action == "report":
        try:
            summaries = runner.report(batch=args.batch)
        except CampaignError as exc:
            raise CommandError(*exc.args) from None
        spec = runner.load_spec()
        kind = "batch means" if args.batch else "per-trial"
        print(f"campaign report: {spec.name} "
              f"(by {spec.compare_by}, {kind}, mean +- 95% CI)")
        print(comparison_table(summaries))
        return 0

    # gen: build the spec from a scenario generator, then run it
    if args.action == "gen":
        from .experiments.campaign import campaign_from_generator

        if not args.generator:
            raise CommandError("campaign gen requires --generator NAME")
        try:
            spec = campaign_from_generator(
                name=args.name,
                generator=args.generator,
                count=args.count,
                axis=args.axis,
                start=args.start,
                params=_parse_assignments(args.gen_param, "--gen-param"),
                base=_parse_assignments(args.base, "--base"),
                seeds=tuple(_seed_range(args)),
                compare_by=args.compare_by,
            )
        except (KeyError, ValueError) as exc:
            raise CommandError(*exc.args) from None
        return _run_campaign(args, runner, spec)

    # run / resume
    spec = None
    if args.action == "run":
        grid: Dict[str, List[Any]] = {}
        scenario_grid: Dict[str, List[Any]] = {}
        for option in args.param or []:
            grid.update(_parse_param(option))
        for option in args.scenario_param or []:
            scenario_grid.update(_parse_param(option))
        try:
            spec = CampaignSpec(
                name=args.name,
                experiment=args.experiment,
                grid=grid,
                base=_parse_assignments(args.base, "--base"),
                scenario_grid=scenario_grid,
                seeds=tuple(_seed_range(args)),
                compare_by=args.compare_by,
            )
        except (KeyError, ValueError) as exc:
            raise CommandError(*exc.args) from None

    return _run_campaign(args, runner, spec)


def _run_campaign(args: argparse.Namespace, runner, spec) -> int:
    """Execute (or resume) a campaign spec and print the outcome."""
    from .experiments.campaign import CampaignError

    def progress(record, n_done, n_total):
        if args.quiet:
            return
        state = "cached " if record.cached else f"{record.elapsed:6.2f}s"
        print(f"  [{n_done}/{n_total}] {state}  seed={record.seed} #{record.index}")

    try:
        run = runner.run(spec, max_trials=args.max_trials, progress=progress)
    except KeyboardInterrupt:
        print(f"\ninterrupted — resume with: repro campaign resume "
              f"--dir {args.dir}", file=sys.stderr)
        return 3
    except CampaignError as exc:
        raise CommandError(*exc.args) from None

    print(
        f"campaign {run.spec.name}: {run.completed}/{run.total} trials done "
        f"({run.executed} executed, {run.cached_hits} cached this run, "
        f"{run.elapsed:.2f} s wall, jobs={args.jobs})"
    )
    if run.complete:
        print(f"manifest: {runner.manifest_path}")
        print(f"campaign report (by {run.spec.compare_by}, mean +- 95% CI)")
        print(comparison_table(run.summaries or {}))
    else:
        print(f"resume with: repro campaign resume --dir {args.dir}")
    if args.metrics_out and run.telemetry is not None:
        _emit_telemetry(
            args, run.spec.experiment, snapshot=run.telemetry,
            seeds=tuple(run.spec.seeds), wall_time=run.elapsed,
            extra={"campaign": run.spec.name},
        )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _comma_list(
    cast: Callable[[str], Any], valid: Callable[[Any], bool], requirement: str
) -> Callable[[str], List[Any]]:
    """argparse ``type=`` for a comma-separated list of ``cast`` items passing ``valid``."""

    def parse(text: str) -> List[Any]:
        values = []
        for item in text.split(","):
            if item == "":
                continue
            try:
                value = cast(item)
            except ValueError:
                value = None
            if value is None or not valid(value):
                raise argparse.ArgumentTypeError(f"{requirement}, got {item!r}")
            values.append(value)
        return values

    return parse


def _one_of(names: Sequence[str], what: str) -> Callable[[str], str]:
    """argparse ``type=`` for one registered name; the error lists them all."""

    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r}; valid: {', '.join(names)}"
            )
        return text

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="BiCord reproduction scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups, declared ONCE as argparse parent parsers so every
    # subcommand exposes them with byte-identical names, defaults, and help.
    seed_flags = argparse.ArgumentParser(add_help=False)
    seed_flags.add_argument("--seed", type=_nonnegative_int, default=0,
                            help="base random seed")
    seed_flags.add_argument("--seeds", type=_positive_int, default=1,
                            metavar="N",
                            help="run N seeds (seed..seed+N-1) and report means")

    exec_flags = argparse.ArgumentParser(add_help=False)
    exec_flags.add_argument("--jobs", type=_positive_int, default=1,
                            help="worker processes (1 = serial)")
    exec_flags.add_argument("--cache-dir", default=None,
                            help="sweep cache directory (default: "
                                 "$BICORD_SWEEP_CACHE or ~/.cache/bicord/sweeps)")
    exec_flags.add_argument("--no-cache", action="store_true",
                            help="disable the on-disk trial cache")
    exec_flags.add_argument("--quiet", action="store_true",
                            help="suppress progress output")

    telemetry_flags = argparse.ArgumentParser(add_help=False)
    telemetry_flags.add_argument("--metrics-out", metavar="PATH", default=None,
                                 help="collect telemetry and write manifest + "
                                      "metrics to PATH (.jsonl or .csv)")
    telemetry_flags.add_argument("-v", "--verbose", action="count", default=0,
                                 help="more logging (repeatable)")

    shared = [seed_flags, exec_flags, telemetry_flags]

    for name, command in EXPERIMENT_COMMANDS.items():
        p = sub.add_parser(name, parents=shared, help=command.help)
        for names, options in command.flags:
            p.add_argument(*names, **options)
        p.set_defaults(func=cmd_experiment, plan=command.plan)

    p = sub.add_parser(
        "robustness",
        parents=shared,
        help="PRR/latency degradation under injected coordination faults",
        description="Sweep one fault dimension over a grid of rates and "
                    "report the degradation curve (rate 0 = fault-free "
                    "control point).",
    )
    p.add_argument(*_LOCATION[0], **_LOCATION[1])
    p.add_argument("--dimension",
                   choices=("detection", "control", "cts", "timers", "all"),
                   default="all")
    p.add_argument("--rates", default="0,0.1,0.25,0.5",
                   type=_comma_list(float, lambda r: 0.0 <= r <= 1.0,
                                    "rates must be in [0, 1]"),
                   help="comma-separated fault rates in [0, 1]")
    p.add_argument("--scheme", choices=scheme_names(), default="bicord")
    p.add_argument("--bursts", type=int, default=20)
    p.add_argument("--scenario", default=None, metavar="NAME",
                   type=_one_of(scenario_names(), "scenario"),
                   help="fault-inject a library scenario instead of the "
                        "standard coexistence workload")
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser(
        "roaming",
        parents=shared,
        help="multi-AP handoff churn vs coexistence quality",
        description="Sweep client speed x AP density x scheme over a "
                    "roaming scenario and report handoff counts, ping-pongs, "
                    "connectivity gap, and the coexistence metrics.",
    )
    p.add_argument("--scenario",
                   choices=("vehicular-corridor", "campus-roaming"),
                   default="vehicular-corridor")
    p.add_argument("--speeds", default="1.5,5,15",
                   type=_comma_list(float, lambda v: 0.0 < v < math.inf,
                                    "speeds must be finite and > 0 m/s"),
                   help="comma-separated client speeds in m/s")
    p.add_argument("--aps", default="2,4",
                   type=_comma_list(int, lambda n: n >= 2,
                                    "there must be at least 2 APs"),
                   help="comma-separated AP counts (>= 2)")
    p.add_argument("--schemes", default="bicord,csma",
                   type=_comma_list(str.strip, lambda s: s in scheme_names(),
                                    "schemes must be among "
                                    + ", ".join(scheme_names())),
                   help="comma-separated coordination schemes")
    p.add_argument("--policy", default="strongest-rssi",
                   type=_one_of(ap_selection_policy_names(), "AP-selection policy"),
                   help="AP-selection policy (strongest-rssi, sticky)")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario duration in seconds")
    p.set_defaults(func=cmd_roaming)

    p = sub.add_parser(
        "sweep",
        parents=shared,
        help="parallel parameter sweep over any registered experiment",
        description="Fan a parameter grid out across worker processes; "
                    "finished trials are cached on disk and never re-run.",
    )
    p.add_argument("--experiment", default=None,
                   help=f"one of: {', '.join(experiment_names())}")
    p.add_argument("--param", action="append", metavar="KEY=V1[,V2...]",
                   help="grid axis (repeatable); single values pin a parameter")
    p.add_argument("--clear-cache", action="store_true",
                   help="delete all cached trial results first")
    p.add_argument("--list", action="store_true",
                   help="list registered experiments and their parameters")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        parents=shared,
        help="named, resumable experiment campaign",
        description="Expand a campaign grid into trials and fan them across "
                    "a work-stealing pool. A killed campaign resumes with "
                    "zero recomputation (results are served from the trial "
                    "cache); `report` prints per-scheme means with 95% "
                    "confidence intervals.",
    )
    p.add_argument("action", choices=("run", "resume", "status", "report",
                                      "gen"))
    p.add_argument("--dir", default="campaign",
                   help="campaign directory (spec + manifest + report)")
    p.add_argument("--name", default="campaign",
                   help="campaign name (recorded in spec + manifest)")
    p.add_argument("--experiment", default="scenario",
                   help=f"one of: {', '.join(experiment_names())}")
    p.add_argument("--param", action="append", metavar="KEY=V1[,V2...]",
                   help="experiment grid axis (repeatable); integer ranges "
                        "expand as A:B (half-open)")
    p.add_argument("--scenario-param", action="append",
                   metavar="KEY=V1[,V2...]",
                   help="scenario factory grid axis (scenario experiment "
                        "only); A:B expands to an integer range — e.g. "
                        "placement_seed=0:100")
    p.add_argument("--base", action="append", metavar="KEY=VALUE",
                   help="fixed experiment parameter (repeatable)")
    p.add_argument("--compare-by", default="scheme",
                   help="parameter the report groups by (default: scheme)")
    p.add_argument("--max-trials", type=_positive_int, default=None,
                   help="cap the trials executed this invocation "
                        "(campaign stays resumable)")
    p.add_argument("--batch", action="store_true",
                   help="report batch-means CIs (average seeds per "
                        "combination first)")
    p.add_argument("--generator", default=None, metavar="NAME",
                   help="(gen) scenario generator to sweep placements of "
                        "— e.g. random_uniform, clustered")
    p.add_argument("--count", type=_positive_int, default=10,
                   help="(gen) number of generated placements")
    p.add_argument("--axis", default="placement_seed",
                   help="(gen) generator parameter swept over "
                        "start..start+count (default: placement_seed)")
    p.add_argument("--start", type=int, default=0,
                   help="(gen) first value of the swept axis")
    p.add_argument("--gen-param", action="append", metavar="KEY=VALUE",
                   help="(gen) fixed generator parameter (repeatable), "
                        "e.g. n_zigbee_links=6")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "list", help="list registered experiments and library scenarios"
    )
    p.set_defaults(func=cmd_list)

    p = sub.add_parser(
        "scenario",
        parents=shared,
        help="list, describe, or run library scenarios (repro.scenarios)",
        description="Library scenarios are declarative ScenarioSpecs; "
                    "`run` compiles one with a seed and reports its metrics, "
                    "`describe` prints the resolved spec + fingerprint.",
    )
    p.add_argument("action", choices=("list", "describe", "run"))
    p.add_argument("name", nargs="?", default=None,
                   help="scenario name (see `scenario list`)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="scenario factory parameter override (repeatable)")
    p.add_argument("--duration", type=float, default=None,
                   help="override the scenario's duration in seconds")
    p.add_argument("--max-events", type=int, default=None,
                   help="cap the simulated event count (smoke runs)")
    p.add_argument("--fault-plan", default=None, metavar="NAME",
                   help="named fault plan or '<dimension>:<rate>'")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        verbosity=getattr(args, "verbose", 0),
        quiet=getattr(args, "quiet", False),
    )
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
