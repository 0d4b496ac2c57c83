"""RF physical layer: spectrum, propagation, modulation, medium, observables."""

from .csi import CsiModel, CsiObserver, CsiSample
from .medium import WIFI_ONLY, ZIGBEE_ONLY, Medium, Technology, Transmission
from .modulation import (
    WIFI_RATES,
    WifiModulation,
    WifiRate,
    ber_gfsk,
    ber_oqpsk_dsss,
    ble_frame_duration,
    packet_success_probability,
    wifi_frame_duration,
    wifi_rate,
    zigbee_frame_duration,
)
from .propagation import Channel, FadingModel, PathLossModel, Position
from .rssi import CAPTURE_MODES, RssiSampler, RssiTrace
from .spectrum import (
    BLE_CHANNELS,
    MICROWAVE_BAND,
    WIFI_CHANNELS,
    ZIGBEE_CHANNELS,
    Band,
    ble_channel,
    overlap_fraction,
    overlapping_zigbee_channels,
    wifi_channel,
    zigbee_channel,
)

__all__ = [
    "CsiModel",
    "CsiObserver",
    "CsiSample",
    "Medium",
    "Technology",
    "Transmission",
    "WIFI_ONLY",
    "ZIGBEE_ONLY",
    "WIFI_RATES",
    "WifiModulation",
    "WifiRate",
    "ber_gfsk",
    "ber_oqpsk_dsss",
    "ble_frame_duration",
    "packet_success_probability",
    "wifi_frame_duration",
    "wifi_rate",
    "zigbee_frame_duration",
    "Channel",
    "FadingModel",
    "PathLossModel",
    "Position",
    "RssiSampler",
    "RssiTrace",
    "CAPTURE_MODES",
    "BLE_CHANNELS",
    "MICROWAVE_BAND",
    "WIFI_CHANNELS",
    "ZIGBEE_CHANNELS",
    "Band",
    "ble_channel",
    "overlap_fraction",
    "overlapping_zigbee_channels",
    "wifi_channel",
    "zigbee_channel",
]
