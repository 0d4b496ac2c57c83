"""Seeded procedural scenario generators: dense deployments on demand.

Each generator emits a fully-validated
:class:`~repro.scenarios.spec.ScenarioSpec` with N ZigBee links and M
Wi-Fi pairs, so deployment density and traffic mix — the axes the
TSCH/Wi-Fi and CTI-survey papers single out — become sweepable
parameters.

Placement is driven by ``placement_seed`` through its own
``numpy.random.default_rng``, *not* by the simulation seed: the same
generator call always yields the same spec (and hence the same
fingerprint and cache key), while the simulation seed only varies the
run.  ``grid`` uses no randomness at all.  Coordinates are rounded so
fingerprints are stable across platforms.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .spec import (
    BurstTrafficSpec,
    CoordinatorSpec,
    ScenarioSpec,
    WifiLinkSpec,
    ZigbeeLinkSpec,
    round_position,
)

#: Per-link traffic archetypes cycled by ``traffic_mix="mixed"``:
#: light sensor chatter, periodic meter reads, heavy camera bursts.
TRAFFIC_PROFILES: Tuple[BurstTrafficSpec, ...] = (
    BurstTrafficSpec(n_packets=3, payload_bytes=30, interval_mean=0.25),
    BurstTrafficSpec(n_packets=5, payload_bytes=50, interval_mean=0.4),
    BurstTrafficSpec(n_packets=12, payload_bytes=100, interval_mean=1.0),
)
TRAFFIC_MIXES = ("uniform", "mixed")


#: Placement rounding is the spec-wide convention — trajectory waypoints and
#: AP sites round through the same function (fingerprint stability).
_round_pos = round_position


def _zigbee_link(
    index: int,
    sender_pos: Tuple[float, float],
    receiver_pos: Tuple[float, float],
    traffic_mix: str,
    max_bursts: Optional[int],
) -> ZigbeeLinkSpec:
    if traffic_mix not in TRAFFIC_MIXES:
        raise ValueError(
            f"unknown traffic_mix {traffic_mix!r}; expected one of {TRAFFIC_MIXES}"
        )
    profile = (
        TRAFFIC_PROFILES[index % len(TRAFFIC_PROFILES)]
        if traffic_mix == "mixed"
        else TRAFFIC_PROFILES[0]
    )
    # Stagger starts so dense deployments don't fire their first burst in
    # lockstep (each source still draws from its own RNG stream).
    traffic = BurstTrafficSpec(
        n_packets=profile.n_packets,
        payload_bytes=profile.payload_bytes,
        interval_mean=profile.interval_mean,
        poisson=profile.poisson,
        max_bursts=max_bursts,
        start_delay=round(0.05 * index, 3),
    )
    return ZigbeeLinkSpec(
        name=f"z{index:02d}",
        sender_pos=sender_pos,
        receiver_pos=receiver_pos,
        traffic=traffic,
    )


def _wifi_pairs(n_wifi_pairs: int, y: float, spacing: float) -> Tuple[WifiLinkSpec, ...]:
    if n_wifi_pairs < 1:
        raise ValueError(f"n_wifi_pairs must be >= 1, got {n_wifi_pairs}")
    links = []
    for j in range(n_wifi_pairs):
        x = round(j * spacing, 3)
        links.append(
            WifiLinkSpec(
                name=f"wifi{j}",
                sender=f"W{j}E",
                receiver=f"W{j}F",
                sender_pos=_round_pos(x, y),
                receiver_pos=_round_pos(x + 3.0, y),
            )
        )
    return tuple(links)


def grid(
    n_zigbee_links: int = 4,
    n_wifi_pairs: int = 1,
    spacing: float = 2.0,
    link_distance: float = 1.0,
    traffic_mix: str = "mixed",
    duration: float = 6.0,
    scheme: str = "bicord",
    max_bursts: Optional[int] = 20,
) -> ScenarioSpec:
    """A deterministic square grid of ZigBee links (no randomness)."""
    if n_zigbee_links < 1:
        raise ValueError(f"n_zigbee_links must be >= 1, got {n_zigbee_links}")
    cols = math.ceil(math.sqrt(n_zigbee_links))
    zigbee = []
    for i in range(n_zigbee_links):
        row, col = divmod(i, cols)
        sender = _round_pos(col * spacing, row * spacing)
        receiver = _round_pos(sender[0] + link_distance, sender[1] + 0.4)
        zigbee.append(_zigbee_link(i, sender, receiver, traffic_mix, max_bursts))
    return ScenarioSpec(
        name="grid",
        description=(
            f"{n_zigbee_links} ZigBee links on a {spacing} m grid, "
            f"{n_wifi_pairs} Wi-Fi pair(s), {traffic_mix} traffic"
        ),
        duration=duration,
        grace=1.0,
        wifi=_wifi_pairs(n_wifi_pairs, y=-spacing, spacing=spacing),
        zigbee=tuple(zigbee),
        coordinator=CoordinatorSpec(scheme=scheme),
    )


def random_uniform(
    n_zigbee_links: int = 4,
    n_wifi_pairs: int = 1,
    area: Tuple[float, float] = (12.0, 8.0),
    placement_seed: int = 0,
    link_distance: float = 1.0,
    traffic_mix: str = "mixed",
    duration: float = 6.0,
    scheme: str = "bicord",
    max_bursts: Optional[int] = 20,
) -> ScenarioSpec:
    """ZigBee senders dropped uniformly at random over ``area`` (meters).

    Receivers sit ``link_distance`` away at a random angle, clipped back
    into the area.  The same ``placement_seed`` always reproduces the
    same layout.
    """
    if n_zigbee_links < 1:
        raise ValueError(f"n_zigbee_links must be >= 1, got {n_zigbee_links}")
    width, height = float(area[0]), float(area[1])
    rng = np.random.default_rng(int(placement_seed))
    zigbee = []
    for i in range(n_zigbee_links):
        sx = float(rng.uniform(0.0, width))
        sy = float(rng.uniform(0.0, height))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        rx = min(max(sx + link_distance * math.cos(angle), 0.0), width)
        ry = min(max(sy + link_distance * math.sin(angle), 0.0), height)
        zigbee.append(
            _zigbee_link(
                i, _round_pos(sx, sy), _round_pos(rx, ry), traffic_mix, max_bursts
            )
        )
    return ScenarioSpec(
        name="random-uniform",
        description=(
            f"{n_zigbee_links} ZigBee links uniform over {width}x{height} m "
            f"(placement_seed={placement_seed}), {n_wifi_pairs} Wi-Fi pair(s)"
        ),
        duration=duration,
        grace=1.0,
        wifi=_wifi_pairs(n_wifi_pairs, y=-2.0, spacing=max(width / max(n_wifi_pairs, 1), 3.5)),
        zigbee=tuple(zigbee),
        coordinator=CoordinatorSpec(scheme=scheme),
    )


def clustered(
    n_clusters: int = 3,
    links_per_cluster: int = 3,
    cluster_radius: float = 1.5,
    area: Tuple[float, float] = (15.0, 10.0),
    placement_seed: int = 0,
    n_wifi_pairs: int = 1,
    link_distance: float = 0.8,
    traffic_mix: str = "mixed",
    duration: float = 6.0,
    scheme: str = "bicord",
    max_bursts: Optional[int] = 20,
) -> ScenarioSpec:
    """ZigBee links grouped into hotspots (rooms / machine cells).

    Cluster centres are uniform over the area inset by ``cluster_radius``;
    each cluster's links scatter uniformly within the radius.
    """
    if n_clusters < 1 or links_per_cluster < 1:
        raise ValueError(
            f"n_clusters and links_per_cluster must be >= 1, "
            f"got {n_clusters}/{links_per_cluster}"
        )
    width, height = float(area[0]), float(area[1])
    margin = min(cluster_radius, width / 2.0, height / 2.0)
    rng = np.random.default_rng(int(placement_seed))
    zigbee = []
    index = 0
    for _ in range(n_clusters):
        cx = float(rng.uniform(margin, width - margin))
        cy = float(rng.uniform(margin, height - margin))
        for _ in range(links_per_cluster):
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            radius = float(rng.uniform(0.0, cluster_radius))
            sx = min(max(cx + radius * math.cos(angle), 0.0), width)
            sy = min(max(cy + radius * math.sin(angle), 0.0), height)
            langle = float(rng.uniform(0.0, 2.0 * math.pi))
            rx = min(max(sx + link_distance * math.cos(langle), 0.0), width)
            ry = min(max(sy + link_distance * math.sin(langle), 0.0), height)
            zigbee.append(
                _zigbee_link(
                    index, _round_pos(sx, sy), _round_pos(rx, ry),
                    traffic_mix, max_bursts,
                )
            )
            index += 1
    return ScenarioSpec(
        name="clustered",
        description=(
            f"{n_clusters} clusters x {links_per_cluster} ZigBee links "
            f"(radius {cluster_radius} m, placement_seed={placement_seed})"
        ),
        duration=duration,
        grace=1.0,
        wifi=_wifi_pairs(n_wifi_pairs, y=-2.0, spacing=max(width / max(n_wifi_pairs, 1), 3.5)),
        zigbee=tuple(zigbee),
        coordinator=CoordinatorSpec(scheme=scheme),
    )
