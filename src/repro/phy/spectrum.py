"""2.4 GHz ISM band model: channels, bands, and spectral overlap.

The coexistence problem BiCord addresses is rooted in spectral asymmetry:
Wi-Fi occupies 20 MHz (or 40 MHz) while ZigBee occupies 2 MHz, so every
ZigBee channel in range is flooded by a fraction of Wi-Fi's power, while a
ZigBee transmission lands entirely inside the Wi-Fi receive filter but only
excites a couple of OFDM subcarriers.

This module provides the frequency bookkeeping: channel maps for 802.11,
802.15.4, and BLE, and the overlap fraction used to weight cross-band
interference power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Band:
    """A contiguous slice of spectrum, centered at ``center_mhz``.

    ``low_mhz``, ``high_mhz`` and ``bandwidth_hz`` are worked out once, when
    the band is made.  They are plain attributes, not fields: equality,
    hashing, ``dataclasses.replace`` and serialization see only the center
    and the width.
    """

    center_mhz: float
    bandwidth_mhz: float

    def __post_init__(self) -> None:
        if self.bandwidth_mhz <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_mhz}")
        half = self.bandwidth_mhz / 2.0
        object.__setattr__(self, "low_mhz", self.center_mhz - half)
        object.__setattr__(self, "high_mhz", self.center_mhz + half)
        object.__setattr__(self, "bandwidth_hz", self.bandwidth_mhz * 1e6)

    def overlaps(self, other: "Band") -> bool:
        """True if the two bands share any spectrum."""
        return self.low_mhz < other.high_mhz and other.low_mhz < self.high_mhz

    def overlapped_mhz(self, other: "Band") -> float:
        """Width of the shared spectrum in MHz (0 if disjoint)."""
        return max(0.0, min(self.high_mhz, other.high_mhz) - max(self.low_mhz, other.low_mhz))


def overlap_fraction(tx_band: Band, rx_band: Band) -> float:
    """Fraction of the transmitter's power that lands in the receive filter.

    We model the transmit power as uniformly spread over the transmit band (a
    flat PSD — a standard first-order model for both OFDM and DSSS signals),
    so the captured fraction is ``overlap_width / tx_bandwidth``:

    * ZigBee (2 MHz) fully inside Wi-Fi's 20 MHz filter → 1.0 (all ZigBee
      power enters the Wi-Fi receiver).
    * Wi-Fi (20 MHz) into a ZigBee 2 MHz filter → 0.1 (-10 dB), which is why
      even attenuated Wi-Fi still swamps a ZigBee receiver given the ~20 dB
      transmit power gap.
    """
    overlap = tx_band.overlapped_mhz(rx_band)
    if overlap <= 0.0:
        return 0.0
    return min(1.0, overlap / tx_band.bandwidth_mhz)


def overlap_profile(tx_band: Band, rx_low, rx_high, rx_bandwidth):
    """Vectorized :func:`overlap_fraction` + decoding dilution for one tx band.

    ``rx_low``/``rx_high``/``rx_bandwidth`` are parallel numpy arrays of
    receiver band edges and widths.  Returns ``(fraction, dilution)`` where
    ``fraction[j]`` equals ``overlap_fraction(tx_band, rx_band_j)`` and
    ``dilution[j]`` equals ``min(1.0, overlapped_mhz / rx_bandwidth_j)`` — the
    two per-pair spectrum weights used by the medium.  The arithmetic mirrors
    the scalar helpers operation-for-operation (max/min chains on IEEE-754
    doubles are exact elementwise), so results are bitwise-identical.
    """
    import numpy as np

    overlap = np.maximum(
        0.0, np.minimum(tx_band.high_mhz, rx_high) - np.maximum(tx_band.low_mhz, rx_low)
    )
    fraction = np.minimum(1.0, overlap / tx_band.bandwidth_mhz)
    fraction[overlap <= 0.0] = 0.0
    dilution = np.minimum(1.0, overlap / rx_bandwidth)
    return fraction, dilution


#: IEEE 802.11b/g/n channel centers (MHz) in the 2.4 GHz band, 20 MHz wide.
WIFI_CHANNELS: Dict[int, Band] = {
    ch: Band(center_mhz=2412.0 + 5.0 * (ch - 1), bandwidth_mhz=20.0) for ch in range(1, 14)
}
# Channel 14 (Japan) sits at 2484 MHz, off the 5 MHz raster.
WIFI_CHANNELS[14] = Band(center_mhz=2484.0, bandwidth_mhz=20.0)

#: IEEE 802.15.4 channels 11-26 (MHz), 2 MHz wide, 5 MHz spacing.
ZIGBEE_CHANNELS: Dict[int, Band] = {
    ch: Band(center_mhz=2405.0 + 5.0 * (ch - 11), bandwidth_mhz=2.0) for ch in range(11, 27)
}

#: Bluetooth LE channels 0-39 (MHz), 2 MHz wide, 2 MHz spacing starting 2402.
BLE_CHANNELS: Dict[int, Band] = {
    ch: Band(center_mhz=2402.0 + 2.0 * ch, bandwidth_mhz=2.0) for ch in range(0, 40)
}

#: A microwave oven emits broadband noise over a large part of the ISM band.
MICROWAVE_BAND = Band(center_mhz=2458.0, bandwidth_mhz=60.0)


def wifi_channel(ch: int) -> Band:
    """Band of 802.11 channel ``ch`` (1-14)."""
    try:
        return WIFI_CHANNELS[ch]
    except KeyError:
        raise ValueError(f"unknown Wi-Fi channel {ch}") from None


def zigbee_channel(ch: int) -> Band:
    """Band of 802.15.4 channel ``ch`` (11-26)."""
    try:
        return ZIGBEE_CHANNELS[ch]
    except KeyError:
        raise ValueError(f"unknown ZigBee channel {ch}") from None


def ble_channel(ch: int) -> Band:
    """Band of BLE channel ``ch`` (0-39)."""
    try:
        return BLE_CHANNELS[ch]
    except KeyError:
        raise ValueError(f"unknown BLE channel {ch}") from None


def overlapping_zigbee_channels(wifi_ch: int) -> list:
    """ZigBee channels whose band overlaps the given Wi-Fi channel.

    The paper pairs Wi-Fi channel 11 with ZigBee channel 24 and Wi-Fi channel
    13 with ZigBee channel 26; both pairs are returned by this helper.
    """
    wband = wifi_channel(wifi_ch)
    return [ch for ch, band in ZIGBEE_CHANNELS.items() if band.overlaps(wband)]
