"""CC2420-class energy accounting for ZigBee nodes.

The paper's Sec. VII-B argues BiCord costs 10-21 % extra energy versus a
clear channel, and less than two interference-induced retransmissions.  The
meter reproduces that arithmetic with the CC2420 datasheet currents: the
radio draws slightly *more* in receive/listen mode (18.8 mA) than when
transmitting at 0 dBm (17.4 mA), which is why idle listening — the cost of
passive channel assessment schemes — dominates low-power budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: CC2420 transmit current (mA) by output power (dBm), from the datasheet.
_TX_CURRENT_MA: List[Tuple[float, float]] = [
    (-25.0, 8.5),
    (-15.0, 9.9),
    (-10.0, 11.0),
    (-7.0, 12.5),
    (-5.0, 13.9),
    (-3.0, 15.2),
    (-1.0, 16.5),
    (0.0, 17.4),
]

RX_CURRENT_MA = 18.8
IDLE_CURRENT_MA = 0.426
SUPPLY_VOLTAGE = 3.0


def tx_current_ma(power_dbm: float) -> float:
    """CC2420 transmit current at ``power_dbm`` (linear interpolation)."""
    points = _TX_CURRENT_MA
    if power_dbm <= points[0][0]:
        return points[0][1]
    if power_dbm >= points[-1][0]:
        return points[-1][1]
    for (p0, i0), (p1, i1) in zip(points, points[1:]):
        if p0 <= power_dbm <= p1:
            fraction = (power_dbm - p0) / (p1 - p0)
            return i0 + fraction * (i1 - i0)
    raise AssertionError("unreachable")


@dataclass
class EnergyMeter:
    """Accumulates radio energy in millijoules, split by activity."""

    tx_mj: float = 0.0
    rx_mj: float = 0.0
    listen_mj: float = 0.0
    tx_seconds: float = 0.0
    rx_seconds: float = 0.0
    listen_seconds: float = 0.0
    by_label: Dict[str, float] = field(default_factory=dict)

    def charge_tx(self, duration: float, power_dbm: float, label: str = "") -> None:
        energy = duration * tx_current_ma(power_dbm) * SUPPLY_VOLTAGE
        self.tx_mj += energy
        self.tx_seconds += duration
        if label:
            self.by_label[label] = self.by_label.get(label, 0.0) + energy

    def charge_rx(self, duration: float, label: str = "") -> None:
        energy = duration * RX_CURRENT_MA * SUPPLY_VOLTAGE
        self.rx_mj += energy
        self.rx_seconds += duration
        if label:
            self.by_label[label] = self.by_label.get(label, 0.0) + energy

    def charge_listen(self, duration: float, label: str = "") -> None:
        energy = duration * RX_CURRENT_MA * SUPPLY_VOLTAGE
        self.listen_mj += energy
        self.listen_seconds += duration
        if label:
            self.by_label[label] = self.by_label.get(label, 0.0) + energy

    @property
    def total_mj(self) -> float:
        return self.tx_mj + self.rx_mj + self.listen_mj
