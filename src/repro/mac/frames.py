"""Frame definitions shared by the MAC layers.

A :class:`Frame` is deliberately technology-agnostic: the MAC that creates it
fills in the sizes and (for Wi-Fi) the OFDM rate; the PHY only needs the bit
count and, via :meth:`Frame.ber`, a BER curve to evaluate reception.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from ..phy.medium import Technology
from ..phy.modulation import (
    DSSS_BER_ZERO_SINR_DB,
    GFSK_BER_ZERO_SINR_DB,
    WifiRate,
    ber_gfsk,
    ber_oqpsk_dsss,
    ble_frame_duration,
    zigbee_frame_duration,
)

#: Destination of broadcast frames.
BROADCAST = "*"

_frame_ids = itertools.count(1)


class FrameType(Enum):
    DATA = "data"
    ACK = "ack"
    CTS = "cts"  # CTS-to-self: reserves the channel (NAV) for its duration field
    CONTROL = "control"  # BiCord cross-technology signaling packet
    CTC_NOTIFY = "ctc_notify"  # ECC's white-space announcement (emulated CTC)
    MGMT = "mgmt"  # Wi-Fi management (reassociation during roaming)


#: MAC overhead added to the payload to form the MPDU.
WIFI_MAC_OVERHEAD_BYTES = 28  # 24 B header + 4 B FCS
WIFI_ACK_MPDU_BYTES = 14
WIFI_CTS_MPDU_BYTES = 14
WIFI_MGMT_MPDU_BYTES = 28  # header-only management frame (reassoc request)
ZIGBEE_MAC_OVERHEAD_BYTES = 11  # 9 B header + 2 B FCS (short addressing)
ZIGBEE_ACK_MPDU_BYTES = 5


@dataclass
class Frame:
    """A MAC frame in flight (or queued)."""

    frame_type: FrameType
    technology: Technology
    source: str
    destination: str
    payload_bytes: int = 0
    mpdu_bytes: int = 0
    rate: Optional[WifiRate] = None
    created_at: float = 0.0
    seq: int = 0
    priority: int = 0  # higher = more important (Wi-Fi traffic classes)
    meta: Dict[str, Any] = field(default_factory=dict)
    frame_id: int = field(default_factory=lambda: next(_frame_ids))

    @property
    def is_broadcast(self) -> bool:
        return self.destination == BROADCAST

    @property
    def bits(self) -> int:
        """Bits whose errors can kill the frame (MPDU; headers included)."""
        return 8 * self.mpdu_bytes

    def duration(self) -> float:
        """Airtime of the frame."""
        if self.technology is Technology.WIFI:
            if self.rate is None:
                raise ValueError("Wi-Fi frame needs a rate")
            return self.rate.airtime(self.mpdu_bytes)
        if self.technology is Technology.ZIGBEE:
            return zigbee_frame_duration(self.mpdu_bytes)
        if self.technology is Technology.BLE:
            return ble_frame_duration(self.mpdu_bytes)
        raise ValueError(f"no duration rule for {self.technology}")

    def ber(self, sinr_db: float) -> float:
        """Bit error rate of this frame's modulation at the given SINR."""
        if self.technology is Technology.WIFI:
            assert self.rate is not None
            return self.rate.ber(sinr_db)
        if self.technology is Technology.ZIGBEE:
            return ber_oqpsk_dsss(sinr_db)
        if self.technology is Technology.BLE:
            return ber_gfsk(sinr_db)
        raise ValueError(f"no BER model for {self.technology}")

    @property
    def ber_zero_sinr_db(self) -> float:
        """SINR (dB) at and above which :meth:`ber` is exactly 0.0."""
        if self.technology is Technology.WIFI:
            assert self.rate is not None
            return self.rate.ber_zero_sinr_db
        if self.technology is Technology.ZIGBEE:
            return DSSS_BER_ZERO_SINR_DB
        if self.technology is Technology.BLE:
            return GFSK_BER_ZERO_SINR_DB
        raise ValueError(f"no BER model for {self.technology}")


def wifi_data_frame(
    source: str,
    destination: str,
    payload_bytes: int,
    rate: WifiRate,
    created_at: float = 0.0,
    priority: int = 0,
    **meta: Any,
) -> Frame:
    """Build a Wi-Fi DATA frame with standard MAC overhead."""
    return Frame(
        FrameType.DATA,
        Technology.WIFI,
        source,
        destination,
        payload_bytes=payload_bytes,
        mpdu_bytes=payload_bytes + WIFI_MAC_OVERHEAD_BYTES,
        rate=rate,
        created_at=created_at,
        priority=priority,
        meta=dict(meta),
    )


def wifi_ack_frame(source: str, destination: str, rate: WifiRate) -> Frame:
    return Frame(
        FrameType.ACK,
        Technology.WIFI,
        source,
        destination,
        mpdu_bytes=WIFI_ACK_MPDU_BYTES,
        rate=rate,
    )


def wifi_cts_frame(source: str, nav_duration: float, rate: WifiRate, **meta: Any) -> Frame:
    """CTS-to-self reserving the channel for ``nav_duration`` seconds."""
    fields = dict(meta)
    fields["nav_duration"] = nav_duration
    return Frame(
        FrameType.CTS,
        Technology.WIFI,
        source,
        BROADCAST,
        mpdu_bytes=WIFI_CTS_MPDU_BYTES,
        rate=rate,
        meta=fields,
    )


def wifi_mgmt_frame(
    source: str,
    destination: str,
    rate: WifiRate,
    created_at: float = 0.0,
    **meta: Any,
) -> Frame:
    """A minimal Wi-Fi management frame (reassociation during a handoff).

    Sent at the basic rate like control traffic; it is not ACKed and does
    not count toward the MAC's DATA statistics, so roaming overhead stays
    visible as airtime without polluting per-link delivery metrics.
    """
    return Frame(
        FrameType.MGMT,
        Technology.WIFI,
        source,
        destination,
        mpdu_bytes=WIFI_MGMT_MPDU_BYTES,
        rate=rate,
        created_at=created_at,
        meta=dict(meta),
    )


def zigbee_data_frame(
    source: str,
    destination: str,
    payload_bytes: int,
    created_at: float = 0.0,
    **meta: Any,
) -> Frame:
    """Build a ZigBee DATA frame with standard MAC overhead."""
    return Frame(
        FrameType.DATA,
        Technology.ZIGBEE,
        source,
        destination,
        payload_bytes=payload_bytes,
        mpdu_bytes=payload_bytes + ZIGBEE_MAC_OVERHEAD_BYTES,
        created_at=created_at,
        meta=dict(meta),
    )


def zigbee_ack_frame(source: str, destination: str, acked_seq: int) -> Frame:
    return Frame(
        FrameType.ACK,
        Technology.ZIGBEE,
        source,
        destination,
        mpdu_bytes=ZIGBEE_ACK_MPDU_BYTES,
        meta={"acked_seq": acked_seq},
    )


def zigbee_control_frame(source: str, total_bytes: int, **meta: Any) -> Frame:
    """BiCord cross-technology signaling packet.

    ``total_bytes`` is the full frame length on the air (the paper uses 120 B
    so that the frame spans at least two consecutive Wi-Fi packets); it is
    carried as the MPDU size directly.
    """
    return Frame(
        FrameType.CONTROL,
        Technology.ZIGBEE,
        source,
        BROADCAST,
        payload_bytes=max(0, total_bytes - ZIGBEE_MAC_OVERHEAD_BYTES),
        mpdu_bytes=total_bytes,
        meta=dict(meta),
    )
