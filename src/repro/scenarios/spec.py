"""Declarative scenario specs: the data model behind ``repro.scenarios``.

A :class:`ScenarioSpec` is a pure-data description of one coexistence
deployment: which Wi-Fi links and ZigBee links exist, where their devices
sit, what traffic each link carries, which coordination scheme runs on
which Wi-Fi link, optional mobility, and an optional named fault plan.
Everything the compiler (:mod:`.compiler`) needs to build a ready
simulation is in the spec; everything else (seed, calibration override,
trace kinds) arrives at compile time.

Specs are frozen dataclasses, so they serialize through
:mod:`repro.serialization` like every config in this repo, and
:meth:`ScenarioSpec.fingerprint` content-addresses the whole tree — the
sweep cache and telemetry manifests key on that digest.

Loading is *strict*: :func:`spec_from_dict` decodes through
:func:`repro.serialization.from_dict`, the decoder every config and cached
result goes through, which rejects unknown keys and ill-typed values with a
:class:`SpecError` carrying the exact path (``zigbee[1].traffic.n_packets``)
— a typo in a scenario file must never silently fall back to a default.
:meth:`ScenarioSpec.validate` then adds the semantic checks.  TOML and JSON
files load through :func:`load_spec`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.config import BicordConfig
from ..experiments.topology import LOCATIONS, Calibration
from ..schemes import SCHEMES, scheme_names
from ..serialization import SpecError, from_dict, stable_hash, to_dict

MOBILITY_KINDS = ("none", "person", "device", "trajectory")
TRAJECTORY_MODELS = ("waypoint", "random-waypoint")
WIFI_TRAFFIC_KINDS = ("periodic", "priority", "none")


def round_position(x: float, y: float) -> Tuple[float, float]:
    """Canonical coordinate rounding (mm precision) for spec fingerprints.

    Every position that enters a spec — generator placements, trajectory
    waypoints, AP sites — rounds through this one function, so equivalent
    TOML float spellings (``1.2000001`` vs ``1.2``) always hash to the same
    :meth:`ScenarioSpec.fingerprint` and never split the sweep cache.
    """
    return (round(float(x), 3), round(float(y), 3))


def check_location(location: str) -> None:
    """Raise :class:`SpecError` unless ``location`` is one of the paper's A-D."""
    if location not in LOCATIONS:
        raise SpecError(
            "location",
            f"unknown location {location!r}; expected one of {sorted(LOCATIONS)}",
        )


# ======================================================================
# The spec tree
# ======================================================================
@dataclass(frozen=True)
class WifiTrafficSpec:
    """Workload on one Wi-Fi link.

    ``kind`` selects the generator: ``periodic`` (the paper's saturating
    1 ms stream), ``priority`` (alternating video/file phases, Sec.
    VIII-G), or ``none`` (a silent link that only hosts the coordinator).
    ``None`` payload/interval fall back to the calibration's values.
    """

    kind: str = "periodic"
    payload_bytes: Optional[int] = None
    interval: Optional[float] = None
    max_packets: Optional[int] = None
    # priority-kind knobs
    high_proportion: float = 0.3
    phase_duration: float = 0.5
    #: Horizon the priority phases span; ``None`` = the scenario duration.
    total_duration: Optional[float] = None


@dataclass(frozen=True)
class BurstTrafficSpec:
    """Bursty ZigBee application traffic (the paper's Poisson model)."""

    n_packets: int = 5
    payload_bytes: int = 50
    interval_mean: float = 0.2
    poisson: bool = True
    max_bursts: Optional[int] = None
    start_delay: float = 0.0


@dataclass(frozen=True)
class WifiLinkSpec:
    """One Wi-Fi sender/receiver pair (and the traffic it carries)."""

    name: str = "wifi"
    sender: str = "E"
    receiver: str = "F"
    sender_pos: Tuple[float, float] = (0.0, 0.0)
    receiver_pos: Tuple[float, float] = (3.0, 0.0)
    #: ``None`` = take the value from the calibration.
    channel: Optional[int] = None
    tx_power_dbm: Optional[float] = None
    data_rate_mbps: Optional[float] = None
    traffic: WifiTrafficSpec = field(default_factory=WifiTrafficSpec)


@dataclass(frozen=True)
class ZigbeeLinkSpec:
    """One ZigBee sender/receiver pair (and its burst traffic).

    ``sender``/``receiver`` are device names; ``None`` derives them from
    the link name (``<name>`` / ``<name>-rx``).
    """

    name: str = "zigbee"
    sender: Optional[str] = None
    receiver: Optional[str] = None
    sender_pos: Tuple[float, float] = (2.6, 0.9)
    receiver_pos: Tuple[float, float] = (3.8, 1.3)
    channel: Optional[int] = None
    tx_power_dbm: Optional[float] = None
    #: Control-packet power for this node; ``None`` = the paper's
    #: per-location default (see ``location_powermap``).
    signaling_power_dbm: Optional[float] = None
    traffic: BurstTrafficSpec = field(default_factory=BurstTrafficSpec)

    @property
    def sender_name(self) -> str:
        return self.sender if self.sender is not None else self.name

    @property
    def receiver_name(self) -> str:
        return self.receiver if self.receiver is not None else f"{self.name}-rx"


@dataclass(frozen=True)
class CoordinatorSpec:
    """Which coordination scheme runs, and on which Wi-Fi link."""

    scheme: str = "bicord"
    #: Name of the Wi-Fi link hosting the coordinator (its *receiver* is
    #: the observing device); ``None`` = the spec's first Wi-Fi link.
    on: Optional[str] = None
    ecc_whitespace: float = 20e-3
    ecc_period: float = 100e-3
    #: When True and a priority Wi-Fi source exists, the coordinator only
    #: grants white spaces during low-priority phases (Sec. VIII-G).
    honor_priority: bool = True
    bicord: BicordConfig = field(default_factory=BicordConfig)


@dataclass(frozen=True)
class MobilitySpec:
    """Mobility: Sec. VIII-F jitter models plus full trajectory motion.

    ``kind`` selects the model: ``person`` (CSI perturbation on a Wi-Fi
    link), ``device`` (a ZigBee sender wandering within 1 m), or
    ``trajectory`` (the link's *sender* rides a :mod:`repro.mobility`
    trajectory, re-positioned every ``tick`` seconds).  ``link`` names the
    affected link; ``None`` = the observer Wi-Fi link (``person``), the
    first ZigBee link (``device``), or the first Wi-Fi link — falling back
    to the first ZigBee link — for ``trajectory``.

    Trajectory knobs: ``model="waypoint"`` follows ``waypoints`` at
    ``speed_mps`` (or one speed per leg via ``leg_speeds``; ``loop`` closes
    the path), ``model="random-waypoint"`` draws targets inside ``area``
    (offset by ``origin``) from its own generator seeded with ``rw_seed``,
    pausing ``pause`` seconds at each.  Waypoint and origin coordinates are
    rounded through :func:`round_position` at construction, so fingerprints
    are stable across TOML float spellings.
    """

    kind: str = "none"
    link: Optional[str] = None
    # trajectory-kind knobs
    model: str = "waypoint"
    waypoints: Tuple[Tuple[float, float], ...] = ()
    speed_mps: float = 1.0
    leg_speeds: Tuple[float, ...] = ()
    loop: bool = False
    tick: float = 0.1
    area: Tuple[float, float] = (30.0, 10.0)
    origin: Tuple[float, float] = (0.0, 0.0)
    pause: float = 0.0
    rw_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "waypoints",
            tuple(round_position(x, y) for x, y in self.waypoints),
        )
        object.__setattr__(self, "origin", round_position(*self.origin))


@dataclass(frozen=True)
class ApSpec:
    """One additional access point of the ESS (the roaming AP set).

    The first AP of the ESS is always the roaming link's own receiver;
    entries here add further APs at fixed sites.  ``None`` channel/power/
    rate fall back to the calibration, like Wi-Fi links.
    """

    name: str = "AP"
    pos: Tuple[float, float] = (0.0, 0.0)
    channel: Optional[int] = None
    tx_power_dbm: Optional[float] = None
    data_rate_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", round_position(*self.pos))


@dataclass(frozen=True)
class RoamingSpec:
    """Client roaming across the ESS: policy, scan cadence, handoff cost.

    ``link`` names the Wi-Fi link whose *sender* is the roaming client
    (its receiver is the first AP of the ESS); ``None`` = the spec's first
    Wi-Fi link.  ``policy`` is a registered AP-selection policy
    (see :data:`repro.mobility.roaming.AP_SELECTION_POLICIES`);
    ``hysteresis_db`` / ``min_rssi_dbm`` parameterize the shipped
    policies.  ``handoff_gap`` seconds of MAC self-suppression model the
    scan/auth/assoc exchange; a return to the previous AP within
    ``pingpong_window`` seconds counts as a ping-pong.
    """

    link: Optional[str] = None
    policy: str = "strongest-rssi"
    hysteresis_db: float = 4.0
    min_rssi_dbm: float = -75.0
    scan_interval: float = 0.25
    handoff_gap: float = 30e-3
    pingpong_window: float = 2.0


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, compilable scenario description."""

    name: str = "scenario"
    description: str = ""
    duration: float = 6.0
    #: Extra settling time after ``duration`` while ZigBee packets drain.
    grace: float = 0.0
    #: Paper location (A-D): pins the default signaling power.
    location: str = "A"
    wifi: Tuple[WifiLinkSpec, ...] = (WifiLinkSpec(),)
    zigbee: Tuple[ZigbeeLinkSpec, ...] = (ZigbeeLinkSpec(),)
    coordinator: CoordinatorSpec = field(default_factory=CoordinatorSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    #: Additional APs of the ESS (multi-AP roaming).  Empty = no roaming:
    #: the compiled scenario is then identical to a pre-roaming one.
    aps: Tuple[ApSpec, ...] = ()
    roaming: RoamingSpec = field(default_factory=RoamingSpec)
    calibration: Calibration = field(default_factory=Calibration)
    #: Named fault plan (see ``repro.faults.presets``) or ``dim:rate``.
    fault_plan: Optional[str] = None

    # ------------------------------------------------------------------
    def observer_link(self) -> Optional[str]:
        """Name of the Wi-Fi link whose receiver hosts the coordinator."""
        if self.coordinator.on is not None:
            return self.coordinator.on
        return self.wifi[0].name if self.wifi else None

    def trajectory_link(self) -> Optional[str]:
        """Name of the link whose sender rides the trajectory (any tech)."""
        if self.mobility.link is not None:
            return self.mobility.link
        if self.wifi:
            return self.wifi[0].name
        return self.zigbee[0].name if self.zigbee else None

    def roaming_link(self) -> Optional[str]:
        """Name of the Wi-Fi link whose sender is the roaming client."""
        if self.roaming.link is not None:
            return self.roaming.link
        return self.wifi[0].name if self.wifi else None

    def fingerprint(self) -> str:
        """Content address of the spec tree (sweep cache, manifests).

        The free-text ``description`` is excluded: editing prose must not
        invalidate cached trials.
        """
        data = to_dict(self)
        data.pop("description", None)
        return stable_hash(data)

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`SpecError` on any semantic inconsistency."""
        if not self.name:
            raise SpecError("name", "scenario name must be non-empty")
        if self.duration <= 0:
            raise SpecError("duration", f"must be > 0, got {self.duration}")
        if self.grace < 0:
            raise SpecError("grace", f"must be >= 0, got {self.grace}")
        check_location(self.location)
        if self.coordinator.scheme not in SCHEMES:
            raise SpecError(
                "coordinator.scheme",
                f"unknown scheme {self.coordinator.scheme!r}; "
                f"expected one of {scheme_names()}",
            )
        if self.mobility.kind not in MOBILITY_KINDS:
            raise SpecError(
                "mobility.kind",
                f"unknown mobility {self.mobility.kind!r}; expected one of {MOBILITY_KINDS}",
            )
        wifi_names = [link.name for link in self.wifi]
        zigbee_names = [link.name for link in self.zigbee]
        for scope, names in (("wifi", wifi_names), ("zigbee", zigbee_names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            if dupes:
                raise SpecError(scope, f"duplicate link name(s): {dupes}")
        # Every traffic source draws from ``traffic/<link name>``: a Wi-Fi
        # and a ZigBee link of one name would share a random stream.
        for i, link in enumerate(self.zigbee):
            if link.name in wifi_names:
                raise SpecError(
                    f"zigbee[{i}].name",
                    f"link name {link.name!r} is also a Wi-Fi link's name",
                )
        device_names: Dict[str, str] = {}
        for i, link in enumerate(self.wifi):
            for role, device in (("sender", link.sender), ("receiver", link.receiver)):
                path = f"wifi[{i}].{role}"
                if device in device_names:
                    raise SpecError(
                        path, f"device name {device!r} already used at {device_names[device]}"
                    )
                device_names[device] = path
        for i, link in enumerate(self.zigbee):
            for role, device in (
                ("sender", link.sender_name), ("receiver", link.receiver_name)
            ):
                path = f"zigbee[{i}].{role}"
                if device in device_names:
                    raise SpecError(
                        path, f"device name {device!r} already used at {device_names[device]}"
                    )
                device_names[device] = path
            if link.traffic.n_packets < 1:
                raise SpecError(
                    f"zigbee[{i}].traffic.n_packets",
                    f"must be >= 1, got {link.traffic.n_packets}",
                )
            if link.traffic.interval_mean <= 0:
                raise SpecError(
                    f"zigbee[{i}].traffic.interval_mean",
                    f"must be > 0, got {link.traffic.interval_mean}",
                )
        for i, link in enumerate(self.wifi):
            traffic = link.traffic
            if traffic.kind not in WIFI_TRAFFIC_KINDS:
                raise SpecError(
                    f"wifi[{i}].traffic.kind",
                    f"unknown kind {traffic.kind!r}; expected one of {WIFI_TRAFFIC_KINDS}",
                )
            if not 0.0 <= traffic.high_proportion <= 1.0:
                raise SpecError(
                    f"wifi[{i}].traffic.high_proportion",
                    f"must be in [0, 1], got {traffic.high_proportion}",
                )
        observer = self.observer_link()
        if SCHEMES[self.coordinator.scheme].coordinator is not None:
            if observer is None:
                raise SpecError(
                    "coordinator.on",
                    f"scheme {self.coordinator.scheme!r} needs a Wi-Fi link to host "
                    "the coordinator, but the spec has none",
                )
            if observer not in wifi_names:
                raise SpecError(
                    "coordinator.on",
                    f"unknown Wi-Fi link {observer!r}; available: {wifi_names}",
                )
        if self.mobility.kind == "person":
            target = self.mobility.link or observer
            if target is None or target not in wifi_names:
                raise SpecError(
                    "mobility.link",
                    f"person mobility needs a Wi-Fi link, got {target!r} "
                    f"(available: {wifi_names})",
                )
        if self.mobility.kind == "device":
            target = self.mobility.link or (zigbee_names[0] if zigbee_names else None)
            if target is None or target not in zigbee_names:
                raise SpecError(
                    "mobility.link",
                    f"device mobility needs a ZigBee link, got {target!r} "
                    f"(available: {zigbee_names})",
                )
        if self.mobility.kind == "trajectory":
            mobility = self.mobility
            if mobility.model not in TRAJECTORY_MODELS:
                raise SpecError(
                    "mobility.model",
                    f"unknown trajectory model {mobility.model!r}; "
                    f"expected one of {TRAJECTORY_MODELS}",
                )
            if mobility.tick <= 0:
                raise SpecError("mobility.tick", f"must be > 0, got {mobility.tick}")
            if mobility.speed_mps <= 0:
                raise SpecError(
                    "mobility.speed_mps", f"must be > 0, got {mobility.speed_mps}"
                )
            target = self.trajectory_link()
            if target is None or (
                target not in wifi_names and target not in zigbee_names
            ):
                raise SpecError(
                    "mobility.link",
                    f"trajectory mobility needs an existing link, got {target!r} "
                    f"(available: {wifi_names + zigbee_names})",
                )
            if mobility.model == "waypoint":
                if len(mobility.waypoints) < 2:
                    raise SpecError(
                        "mobility.waypoints",
                        f"a waypoint trajectory needs >= 2 waypoints, "
                        f"got {len(mobility.waypoints)}",
                    )
                if mobility.leg_speeds:
                    points = list(mobility.waypoints)
                    closing = mobility.loop and points[-1] != points[0]
                    n_legs = len(points) if closing else len(points) - 1
                    if len(mobility.leg_speeds) != n_legs:
                        raise SpecError(
                            "mobility.leg_speeds",
                            f"need one speed per leg ({n_legs}, loops include "
                            f"the closing leg), got {len(mobility.leg_speeds)}",
                        )
                    if any(s <= 0 for s in mobility.leg_speeds):
                        raise SpecError(
                            "mobility.leg_speeds",
                            f"speeds must be > 0, got {list(mobility.leg_speeds)}",
                        )
            else:  # random-waypoint
                if mobility.area[0] <= 0 or mobility.area[1] <= 0:
                    raise SpecError(
                        "mobility.area",
                        f"area sides must be > 0, got {mobility.area}",
                    )
                if mobility.pause < 0:
                    raise SpecError(
                        "mobility.pause", f"must be >= 0, got {mobility.pause}"
                    )
        if self.aps:
            target = self.roaming_link()
            if target is None or target not in wifi_names:
                raise SpecError(
                    "roaming.link",
                    f"roaming needs a Wi-Fi link whose sender is the client, "
                    f"got {target!r} (available: {wifi_names})",
                )
            for i, ap in enumerate(self.aps):
                path = f"aps[{i}].name"
                if not ap.name:
                    raise SpecError(path, "AP name must be non-empty")
                if ap.name in device_names:
                    raise SpecError(
                        path,
                        f"device name {ap.name!r} already used at {device_names[ap.name]}",
                    )
                device_names[ap.name] = path
            roaming = self.roaming
            if roaming.scan_interval <= 0:
                raise SpecError(
                    "roaming.scan_interval", f"must be > 0, got {roaming.scan_interval}"
                )
            if roaming.handoff_gap < 0:
                raise SpecError(
                    "roaming.handoff_gap", f"must be >= 0, got {roaming.handoff_gap}"
                )
            if roaming.hysteresis_db < 0:
                raise SpecError(
                    "roaming.hysteresis_db", f"must be >= 0, got {roaming.hysteresis_db}"
                )
            if roaming.pingpong_window < 0:
                raise SpecError(
                    "roaming.pingpong_window",
                    f"must be >= 0, got {roaming.pingpong_window}",
                )
            from ..mobility.roaming import (  # late: keep spec import light
                AP_SELECTION_POLICIES,
            )

            if roaming.policy not in AP_SELECTION_POLICIES:
                raise SpecError(
                    "roaming.policy",
                    f"unknown AP-selection policy {roaming.policy!r}; "
                    f"available: {sorted(AP_SELECTION_POLICIES)}",
                )
        if self.fault_plan is not None:
            from ..faults.presets import get_fault_plan  # late: keep spec import light

            try:
                get_fault_plan(self.fault_plan)
            except (KeyError, ValueError) as exc:
                raise SpecError("fault_plan", str(exc)) from None


def spec_from_dict(data: Dict[str, Any]) -> ScenarioSpec:
    """Decode (strictly, see :func:`repro.serialization.from_dict`) and
    validate a :class:`ScenarioSpec`; a :class:`SpecError` names the field."""
    spec = from_dict(ScenarioSpec, data)
    spec.validate()
    return spec


def load_spec(path: str) -> ScenarioSpec:
    """Load a spec from a ``.toml`` or ``.json`` file (strictly validated)."""
    text_path = str(path)
    if text_path.endswith(".toml"):
        import tomllib

        with open(text_path, "rb") as handle:
            data = tomllib.load(handle)
    elif text_path.endswith(".json"):
        with open(text_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    else:
        raise ValueError(f"unsupported spec format: {text_path!r} (.toml or .json)")
    return spec_from_dict(data)
