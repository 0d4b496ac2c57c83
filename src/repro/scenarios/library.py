"""The scenario registry and the built-in scenario library.

Scenarios register as named factories: a factory takes keyword parameters
(its signature *is* its parameter schema — ``repro scenario list`` shows
it) and returns a :class:`~repro.scenarios.spec.ScenarioSpec`.
:func:`get_scenario` resolves a name (case/underscore-insensitive),
checks the parameters against the factory signature, and pins the spec's
``name`` to the library name so results and manifests always carry the
canonical identity.

The built-ins are the deployments the repo previously hard-coded under
``examples/`` (office, smart-home, dense-office, mobile-workshop,
priority-streaming) plus the three procedural generators from
:mod:`.generators` — every one of them is now sweepable, cacheable,
fault-injectable, and fingerprinted.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, Optional, Tuple

from ..experiments.topology import LOCATIONS, ZIGBEE_RECEIVER_OFFSET
from ..schemes import get_scheme
from . import generators
from .spec import (
    ApSpec,
    BurstTrafficSpec,
    CoordinatorSpec,
    MobilitySpec,
    RoamingSpec,
    ScenarioSpec,
    WifiLinkSpec,
    WifiTrafficSpec,
    ZigbeeLinkSpec,
    check_location,
)


@dataclasses.dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: a named, parameterized spec factory."""

    name: str
    factory: Callable[..., ScenarioSpec]
    description: str

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(inspect.signature(self.factory).parameters)

    @property
    def defaults(self) -> Dict[str, object]:
        return {
            name: parameter.default
            for name, parameter in inspect.signature(self.factory).parameters.items()
            if parameter.default is not inspect.Parameter.empty
        }


SCENARIOS: Dict[str, ScenarioEntry] = {}


def _canonical(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_scenario(
    name: str, factory: Callable[..., ScenarioSpec], description: str = ""
) -> ScenarioEntry:
    """Register (or replace) a scenario factory under ``name``."""
    entry = ScenarioEntry(
        name=_canonical(name),
        factory=factory,
        description=description or (inspect.getdoc(factory) or "").split("\n")[0],
    )
    SCENARIOS[entry.name] = entry
    return entry


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def get_scenario_entry(name: str) -> ScenarioEntry:
    key = _canonical(name)
    if key not in SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return SCENARIOS[key]


def get_scenario(name: str, **params) -> ScenarioSpec:
    """Build the named scenario's spec with factory parameter overrides."""
    entry = get_scenario_entry(name)
    unknown = sorted(set(params) - set(entry.param_names))
    if unknown:
        raise TypeError(
            f"scenario {entry.name!r} got unknown parameter(s) {unknown}; "
            f"valid: {sorted(entry.param_names)}"
        )
    spec = entry.factory(**params)
    if spec.name != entry.name:
        spec = dataclasses.replace(spec, name=entry.name)
    spec.validate()
    return spec


# ======================================================================
# Built-in library
# ======================================================================
def _pos(location: str) -> Tuple[float, float]:
    check_location(location)
    position = LOCATIONS[location]
    return (position.x, position.y)


def office(
    location: str = "A",
    scheme: str = "bicord",
    n_bursts: int = 30,
    burst_packets: int = 5,
    payload_bytes: int = 50,
    burst_interval: float = 0.2,
    poisson: bool = True,
    mobility: str = "none",
) -> ScenarioSpec:
    """The paper's Fig. 6 office: one Wi-Fi link, one ZigBee pair."""
    sender_pos = _pos(location)
    return ScenarioSpec(
        name="office",
        description=(
            f"Fig. 6 office at location {location}: saturated Wi-Fi vs one "
            f"bursty ZigBee link under {scheme}"
        ),
        duration=n_bursts * burst_interval,
        grace=2.0,
        location=location,
        wifi=(WifiLinkSpec(),),
        zigbee=(
            ZigbeeLinkSpec(
                name="zigbee",
                sender="ZS",
                receiver="ZR",
                sender_pos=sender_pos,
                receiver_pos=(
                    sender_pos[0] + ZIGBEE_RECEIVER_OFFSET[0],
                    sender_pos[1] + ZIGBEE_RECEIVER_OFFSET[1],
                ),
                traffic=BurstTrafficSpec(
                    n_packets=burst_packets,
                    payload_bytes=payload_bytes,
                    interval_mean=burst_interval,
                    poisson=poisson,
                    max_bursts=n_bursts,
                ),
            ),
        ),
        coordinator=CoordinatorSpec(scheme=scheme),
        mobility=MobilitySpec(kind=mobility),
    )


def smart_home(scheme: str = "bicord", duration: float = 7.0) -> ScenarioSpec:
    """A motion sensor plus a camera trigger sharing one busy Wi-Fi AP."""
    base = _pos("A")
    return ScenarioSpec(
        name="smart-home",
        description=(
            "Smart home: frequent small motion bursts + rare large camera "
            "uploads, both coordinating with one Wi-Fi AP"
        ),
        duration=duration,
        location="A",
        wifi=(WifiLinkSpec(),),
        zigbee=(
            ZigbeeLinkSpec(
                name="motion",
                sender="ZS",
                receiver="ZR",
                sender_pos=base,
                receiver_pos=(
                    base[0] + ZIGBEE_RECEIVER_OFFSET[0],
                    base[1] + ZIGBEE_RECEIVER_OFFSET[1],
                ),
                traffic=BurstTrafficSpec(
                    n_packets=3, payload_bytes=30, interval_mean=0.25, max_bursts=20
                ),
            ),
            ZigbeeLinkSpec(
                name="camera",
                sender="CAM",
                receiver="CAM-HUB",
                sender_pos=(2.2, 1.3),
                receiver_pos=(3.2, 1.8),
                traffic=BurstTrafficSpec(
                    n_packets=12, payload_bytes=80, interval_mean=1.0,
                    max_bursts=5, start_delay=0.4,
                ),
            ),
        ),
        coordinator=CoordinatorSpec(scheme=scheme),
    )


#: (name, dx, dy, packets/burst, payload, mean interval) — the dense-office
#: sensor table the example used; sensor 0 rides the office's ZS/ZR pair.
DENSE_OFFICE_SENSORS = (
    ("door", 0.0, 0.0, 2, 20, 0.5),
    ("hvac", -0.4, 0.3, 5, 50, 0.3),
    ("meter", -0.8, 0.1, 8, 80, 0.6),
    ("cam-trigger", 0.3, 0.5, 12, 100, 1.2),
)


def dense_office(
    n_sensors: int = 4,
    duration: float = 14.0,
    scheme: str = "bicord",
    max_bursts: Optional[int] = 10,
) -> ScenarioSpec:
    """Four heterogeneous sensor links served by one shared coordinator."""
    if not 1 <= n_sensors <= len(DENSE_OFFICE_SENSORS):
        raise ValueError(
            f"n_sensors must be in [1, {len(DENSE_OFFICE_SENSORS)}], got {n_sensors}"
        )
    base = _pos("A")
    zigbee = []
    for i, (name, dx, dy, packets, payload, interval) in enumerate(
        DENSE_OFFICE_SENSORS[:n_sensors]
    ):
        traffic = BurstTrafficSpec(
            n_packets=packets, payload_bytes=payload, interval_mean=interval,
            max_bursts=max_bursts, start_delay=0.1 * i,
        )
        if i == 0:
            link = ZigbeeLinkSpec(
                name=name, sender="ZS", receiver="ZR",
                sender_pos=base,
                receiver_pos=(
                    base[0] + ZIGBEE_RECEIVER_OFFSET[0],
                    base[1] + ZIGBEE_RECEIVER_OFFSET[1],
                ),
                traffic=traffic,
            )
        else:
            link = ZigbeeLinkSpec(
                name=name, receiver=f"{name}-hub",
                sender_pos=(base[0] + dx, base[1] + dy),
                receiver_pos=(base[0] + dx + 1.1, base[1] + dy + 0.5),
                traffic=traffic,
            )
        zigbee.append(link)
    return ScenarioSpec(
        name="dense-office",
        description=(
            f"{n_sensors} heterogeneous sensor links sharing one coordinator "
            "(the allocator serves the aggregate demand)"
        ),
        duration=duration,
        location="A",
        wifi=(WifiLinkSpec(),),
        zigbee=tuple(zigbee),
        coordinator=CoordinatorSpec(scheme=scheme),
    )


def mobile_workshop(
    mobility: str = "none", scheme: str = "bicord", n_bursts: int = 25
) -> ScenarioSpec:
    """Sec. VIII-F mobility: a walking person or a wandering ZigBee sender."""
    spec = office(
        scheme=scheme, n_bursts=n_bursts, burst_interval=0.2, mobility=mobility
    )
    return dataclasses.replace(
        spec,
        name="mobile-workshop",
        description=(
            f"Office link with mobility={mobility!r}: CSI perturbation "
            "(person) or a sender wandering within 1 m (device)"
        ),
    )


def priority_streaming(
    scheme: str = "bicord",
    high_proportion: float = 0.3,
    total_duration: float = 6.0,
) -> ScenarioSpec:
    """Sec. VIII-G: Wi-Fi alternates video (high) and file (low) phases."""
    get_scheme(scheme, honors_priority=True)
    base = _pos("A")
    return ScenarioSpec(
        name="priority-streaming",
        description=(
            "Prioritized Wi-Fi traffic: the coordinator only grants white "
            "spaces during low-priority phases"
        ),
        duration=total_duration + 0.5,
        location="A",
        wifi=(
            WifiLinkSpec(
                traffic=WifiTrafficSpec(
                    kind="priority",
                    high_proportion=high_proportion,
                    total_duration=total_duration,
                ),
            ),
        ),
        zigbee=(
            ZigbeeLinkSpec(
                name="zigbee",
                sender="ZS",
                receiver="ZR",
                sender_pos=base,
                receiver_pos=(
                    base[0] + ZIGBEE_RECEIVER_OFFSET[0],
                    base[1] + ZIGBEE_RECEIVER_OFFSET[1],
                ),
                traffic=BurstTrafficSpec(
                    n_packets=5, payload_bytes=50, interval_mean=0.2,
                    max_bursts=int(total_duration / 0.2),
                ),
            ),
        ),
        coordinator=CoordinatorSpec(scheme=scheme),
    )


def vehicular_corridor(
    speed_mps: float = 15.0,
    n_aps: int = 4,
    ap_spacing: float = 30.0,
    scheme: str = "bicord",
    policy: str = "strongest-rssi",
    hysteresis_db: float = 4.0,
    scan_interval: float = 0.25,
    handoff_gap: float = 30e-3,
    tick: float = 0.05,
    wifi_interval: Optional[float] = None,
    duration: Optional[float] = None,
) -> ScenarioSpec:
    """A vehicle driving past a row of roadside APs at ``ap_spacing`` m.

    The client ``CAR`` traverses the corridor once at ``speed_mps``; APs
    sit 6 m off the road.  Each AP boundary crossing forces a handoff, so
    handoff count scales with ``n_aps`` and handoff *rate* with speed —
    the two axes of the ``roaming`` sweep.  A roadside ZigBee link halfway
    down the corridor feels the churn through white-space estimation.
    """
    if n_aps < 2:
        raise ValueError(f"vehicular-corridor needs >= 2 APs, got {n_aps}")
    if speed_mps <= 0:
        raise ValueError(f"speed_mps must be > 0, got {speed_mps}")
    if ap_spacing <= 0:
        raise ValueError(f"ap_spacing must be > 0, got {ap_spacing}")
    end = (n_aps - 1) * ap_spacing
    start_x, stop_x = -4.0, end + 4.0
    if duration is None:
        duration = round((stop_x - start_x) / speed_mps, 3)
    mid = end / 2.0
    return ScenarioSpec(
        name="vehicular-corridor",
        description=(
            f"Vehicle at {speed_mps} m/s past {n_aps} roadside APs "
            f"every {ap_spacing} m under the {policy!r} policy"
        ),
        duration=duration,
        wifi=(
            WifiLinkSpec(
                name="car",
                sender="CAR",
                receiver="AP0",
                sender_pos=(start_x, 0.0),
                receiver_pos=(0.0, 6.0),
                traffic=WifiTrafficSpec(interval=wifi_interval),
            ),
        ),
        zigbee=(
            ZigbeeLinkSpec(
                name="roadside",
                sender_pos=(mid, 2.0),
                receiver_pos=(mid + 1.0, 2.4),
                traffic=BurstTrafficSpec(
                    n_packets=4, payload_bytes=40, interval_mean=0.3
                ),
            ),
        ),
        coordinator=CoordinatorSpec(scheme=scheme),
        mobility=MobilitySpec(
            kind="trajectory",
            model="waypoint",
            waypoints=((start_x, 0.0), (stop_x, 0.0)),
            speed_mps=speed_mps,
            tick=tick,
        ),
        aps=tuple(
            ApSpec(name=f"AP{i}", pos=(i * ap_spacing, 6.0))
            for i in range(1, n_aps)
        ),
        roaming=RoamingSpec(
            policy=policy,
            hysteresis_db=hysteresis_db,
            scan_interval=scan_interval,
            handoff_gap=handoff_gap,
        ),
    )


#: Campus AP sites: the roaming link's receiver is AP0 at the first site;
#: further APs fill the remaining corners of the quad walk.
CAMPUS_AP_SITES = ((0.0, 5.0), (16.0, 5.0), (8.0, -5.0))


def campus_roaming(
    speed_mps: float = 1.5,
    n_aps: int = 3,
    scheme: str = "bicord",
    policy: str = "strongest-rssi",
    hysteresis_db: float = 3.0,
    scan_interval: float = 0.25,
    tick: float = 0.1,
    duration: float = 12.0,
    wifi_interval: Optional[float] = None,
) -> ScenarioSpec:
    """A pedestrian looping a campus quad covered by two or three APs.

    The walker ``PED`` loops the 16 m x 6 m quad; the AP layout puts each
    leg decisively closest to a different AP (path-loss margins well above
    the hysteresis), so every lap produces handoffs and — with a sticky or
    over-hysteretic policy — measurable ping-pong suppression.
    """
    if not 2 <= n_aps <= len(CAMPUS_AP_SITES):
        raise ValueError(
            f"n_aps must be in [2, {len(CAMPUS_AP_SITES)}], got {n_aps}"
        )
    if speed_mps <= 0:
        raise ValueError(f"speed_mps must be > 0, got {speed_mps}")
    return ScenarioSpec(
        name="campus-roaming",
        description=(
            f"Pedestrian at {speed_mps} m/s looping a quad under {n_aps} APs "
            f"with the {policy!r} policy"
        ),
        duration=duration,
        wifi=(
            WifiLinkSpec(
                name="ped",
                sender="PED",
                receiver="AP0",
                sender_pos=(0.0, 0.0),
                receiver_pos=CAMPUS_AP_SITES[0],
                traffic=WifiTrafficSpec(interval=wifi_interval),
            ),
        ),
        zigbee=(
            ZigbeeLinkSpec(
                name="quad-sensor",
                sender_pos=(8.0, 3.0),
                receiver_pos=(9.0, 3.4),
                traffic=BurstTrafficSpec(
                    n_packets=3, payload_bytes=30, interval_mean=0.25
                ),
            ),
        ),
        coordinator=CoordinatorSpec(scheme=scheme),
        mobility=MobilitySpec(
            kind="trajectory",
            model="waypoint",
            waypoints=((0.0, 0.0), (16.0, 0.0), (16.0, 6.0), (0.0, 6.0)),
            speed_mps=speed_mps,
            loop=True,
            tick=tick,
        ),
        aps=tuple(
            ApSpec(name=f"AP{i}", pos=CAMPUS_AP_SITES[i])
            for i in range(1, n_aps)
        ),
        roaming=RoamingSpec(
            policy=policy,
            hysteresis_db=hysteresis_db,
            scan_interval=scan_interval,
        ),
    )


register_scenario(
    "office", office, "The paper's Fig. 6 office: one Wi-Fi link, one ZigBee pair"
)
register_scenario(
    "smart-home", smart_home,
    "Motion sensor + camera trigger sharing one busy Wi-Fi AP",
)
register_scenario(
    "dense-office", dense_office,
    "Four heterogeneous sensor links served by one shared coordinator",
)
register_scenario(
    "mobile-workshop", mobile_workshop,
    "Office link with a walking person or a wandering ZigBee sender",
)
register_scenario(
    "priority-streaming", priority_streaming,
    "Wi-Fi alternates video/file phases; grants only in low-priority phases",
)
register_scenario(
    "grid", generators.grid,
    "Procedural: N ZigBee links on a deterministic square grid",
)
register_scenario(
    "random-uniform", generators.random_uniform,
    "Procedural: N ZigBee links dropped uniformly at random over an area",
)
register_scenario(
    "clustered", generators.clustered,
    "Procedural: ZigBee links grouped into seeded hotspot clusters",
)
register_scenario(
    "vehicular-corridor", vehicular_corridor,
    "A vehicle driving past a row of roadside APs, roaming as it goes",
)
register_scenario(
    "campus-roaming", campus_roaming,
    "A pedestrian looping a campus quad covered by two or three APs",
)
