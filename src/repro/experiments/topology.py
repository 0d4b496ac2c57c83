"""The paper's office topology (Fig. 6) and its calibration.

Geometry: the Wi-Fi sender **E** and receiver **F** are 3 m apart; the
ZigBee sender is placed at one of four locations **A-D**; the ZigBee
receiver sits 1-2 m away from the sender.  Our coordinates are chosen so
the signaling-quality phenomena of Tables I/II are *geometric consequences*:

* **A** is closest to F (strong CSI disturbance, best signaling) and far
  from E (no CCA back-off at any power);
* **B** is farthest from F (weakest CSI disturbance at a given power, so
  performance degrades visibly when the power drops);
* **C** is close to E: at 0 dBm its control packets sit right at E's
  effective energy-detection threshold, sometimes making E defer (starving
  the CSI stream), so −1 dBm performs best — the paper's observation;
* **D** is closest to E: only −3 dBm reliably avoids tripping E's CCA.

All physics knobs live in :class:`Calibration` so experiments declare what
they depend on.  The defaults reproduce the paper's regime: 802.11b 1 Mbps
Wi-Fi sending 100 B every 1 ms (≈ saturated channel), ZigBee data at −7 dBm
suffering >95% loss without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..context import SimContext, build_context
from ..core import PowerMap
from ..phy.csi import CsiModel
from ..phy.propagation import FadingModel, PathLossModel, Position

#: Wi-Fi endpoints (meters).
WIFI_SENDER_POS = Position(0.0, 0.0)  # E
WIFI_RECEIVER_POS = Position(3.0, 0.0)  # F

#: ZigBee sender locations A-D (Fig. 6).
LOCATIONS: Dict[str, Position] = {
    "A": Position(2.6, 0.9),  # d(F)=0.99 m, d(E)=2.75 m
    "B": Position(4.4, 0.8),  # d(F)=1.61 m, d(E)=4.47 m
    "C": Position(1.8, 1.0),  # d(F)=1.56 m, d(E)=2.06 m
    "D": Position(1.65, 0.58),  # d(F)=1.47 m, d(E)=1.75 m
}

#: The signaling power the paper uses at each location (footnote 3).
LOCATION_POWERS_DBM: Dict[str, float] = {"A": 0.0, "B": 0.0, "C": -1.0, "D": -3.0}

#: ZigBee receiver offset from its sender (1-2 m link).
ZIGBEE_RECEIVER_OFFSET = (1.2, 0.4)


@dataclass
class Calibration:
    """Every physics/PHY knob an experiment depends on, in one place."""

    # Propagation
    pl0_db: float = 40.0
    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 1.0
    fading_sigma_db: float = 1.5
    # Wi-Fi link & workload (Sec. VIII-A)
    wifi_rate_mbps: float = 1.0
    wifi_tx_power_dbm: float = 20.0
    wifi_payload_bytes: int = 100
    wifi_interval: float = 1e-3
    wifi_channel: int = 11
    #: Non-Wi-Fi CCA-ED penalty: effective threshold = -70 dBm + penalty.
    nonwifi_ed_penalty_db: float = 20.0
    # ZigBee link
    zigbee_channel: int = 24
    zigbee_data_power_dbm: float = -7.0
    # CSI observable model
    csi_base_sigma: float = 0.06
    csi_noise_spike_prob: float = 0.02
    csi_zigbee_midpoint_dbm: float = -47.5
    csi_zigbee_width_db: float = 2.5

    def csi_model(self) -> CsiModel:
        return CsiModel(
            base_sigma=self.csi_base_sigma,
            noise_spike_prob=self.csi_noise_spike_prob,
            zigbee_midpoint_dbm=self.csi_zigbee_midpoint_dbm,
            zigbee_width_db=self.csi_zigbee_width_db,
        )

    def context(
        self, seed: int, trace_kinds=frozenset(), faults=None, n_radios: int = 0
    ) -> SimContext:
        return build_context(
            seed=seed,
            path_loss=PathLossModel(pl0_db=self.pl0_db, exponent=self.path_loss_exponent),
            fading=FadingModel(
                shadowing_sigma_db=self.shadowing_sigma_db,
                fading_sigma_db=self.fading_sigma_db,
            ),
            trace_kinds=set(trace_kinds) if trace_kinds is not None else None,
            faults=faults,
            n_radios=n_radios,
        )


def location_powermap(location: str, default: Optional[float] = None) -> PowerMap:
    """PowerMap preloaded with the paper's per-location signaling power."""
    power = default if default is not None else LOCATION_POWERS_DBM[location]
    return PowerMap(default_power_dbm=power)
