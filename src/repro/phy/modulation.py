"""Modulation-level abstractions: BER curves, packet error rates, durations.

Receivers in the simulator decide packet success from per-segment SINR via
technology-specific bit-error-rate curves:

* **802.15.4 O-QPSK DSSS** — the standard model from the 802.15.4 spec /
  coexistence literature, with the 32-chip spreading gain baked in.
* **802.11 OFDM** — AWGN formulas for BPSK/QPSK/16-QAM/64-QAM with a simple
  coding-gain offset per convolutional code rate, evaluated with the
  standard library's ``math.erfc`` (exactly 0.0 from an argument of about
  27.23 on, so every rate's BER reaches exactly zero at a finite SINR).
* **BLE GFSK** — non-coherent FSK approximation.

Durations follow the corresponding PHY framing (OFDM symbol math for Wi-Fi,
250 kbps plus 6-byte synchronization header for ZigBee).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict

from ..sim.units import USEC, db_to_linear


# ----------------------------------------------------------------------
# Zero-BER cutoffs
# ----------------------------------------------------------------------


def _float_rank(x: float) -> int:
    """An integer that orders finite floats as their values (±0.0 tie)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _rank_float(rank: int) -> float:
    """The float :func:`_float_rank` maps to ``rank``."""
    if rank < 0:
        return -_rank_float(-rank)
    return struct.unpack("<d", struct.pack("<q", rank))[0]


def ber_zero_cutoff(ber: Callable[[float], float]) -> float:
    """The least float SINR (dB) at which ``ber`` returns exactly 0.0.

    A BER curve falls with SINR, so the SINRs it maps to 0.0 start at one
    float and run up from there: bisecting over the floats in order (one
    ``ber`` call per bit, about 64) finds that float, and ``ber`` is
    positive one float below it.  Receivers skip the BER of a segment at or
    above its cutoff, whose success factor is exactly 1.0.
    """
    low, high = _float_rank(-1000.0), _float_rank(1000.0)
    if not ber(_rank_float(low)) > 0.0 or ber(_rank_float(high)) != 0.0:
        raise ValueError("BER curve is not positive at -1000 dB and zero at 1000 dB")
    while high - low > 1:
        middle = (low + high) // 2
        if ber(_rank_float(middle)) == 0.0:
            high = middle
        else:
            low = middle
    return _rank_float(high)


# ----------------------------------------------------------------------
# 802.15.4 O-QPSK DSSS
# ----------------------------------------------------------------------

#: ``(1/k - 1, (-1)^k C(16, k))`` for k = 2..16.  ``1/k - 1`` falls with k,
#: so the exponents of one call fall too.
_DSSS_TERMS = [
    (1.0 / k - 1.0, (1.0 if k % 2 == 0 else -1.0) * math.comb(16, k))
    for k in range(2, 17)
]


def ber_oqpsk_dsss(sinr_db: float) -> float:
    """Bit error rate of 2.4 GHz 802.15.4 O-QPSK with DSSS.

    Standard formula (e.g. 802.15.4-2006 Annex E):

    ``BER = (8/15) * (1/16) * sum_{k=2}^{16} (-1)^k C(16,k) exp(20*SINR*(1/k - 1))``

    with SINR in linear scale.  The factor 20 reflects the 32-chip/4-bit
    spreading; the curve falls from 0.5 to ~1e-5 between roughly -1 dB and
    +3 dB of SINR, which is what gives ZigBee its ability to decode slightly
    below the noise floor of a wideband observer.
    """
    scale = 20.0 * db_to_linear(sinr_db)
    total = 0.0
    for factor, coefficient in _DSSS_TERMS:
        exponent = scale * factor
        # exp underflows harmlessly to 0 for high SINR, and so does every
        # later (smaller) exponent.  A NaN exponent adds no term either.
        if not exponent > -700.0:
            break
        total += coefficient * math.exp(exponent)
    ber = (8.0 / 15.0) * (1.0 / 16.0) * total
    return min(max(ber, 0.0), 0.5)


#: :func:`ber_oqpsk_dsss` is exactly 0.0 at and above this SINR (dB).
DSSS_BER_ZERO_SINR_DB = ber_zero_cutoff(ber_oqpsk_dsss)


# ----------------------------------------------------------------------
# 802.11 OFDM
# ----------------------------------------------------------------------


class WifiModulation(Enum):
    BPSK = "bpsk"
    QPSK = "qpsk"
    QAM16 = "qam16"
    QAM64 = "qam64"
    CCK = "cck"  # 802.11b 5.5/11 Mbps complementary code keying


def _ber_uncoded(modulation: WifiModulation, snr_per_bit: float) -> float:
    """AWGN bit error rate of the raw constellation, linear Eb/N0."""
    if snr_per_bit <= 0.0:
        return 0.5
    if modulation is WifiModulation.BPSK or modulation is WifiModulation.QPSK:
        # Q(x) = erfc(x / sqrt(2)) / 2 at x = sqrt(2 Eb/N0), in that float
        # order: the quotient is not bitwise sqrt(Eb/N0).
        scale, arg = 0.5, math.sqrt(2.0 * snr_per_bit) / math.sqrt(2.0)
    elif modulation is WifiModulation.QAM16:
        scale, arg = 3.0 / 8.0, math.sqrt(0.4 * snr_per_bit)
    elif modulation is WifiModulation.QAM64:
        scale, arg = 7.0 / 24.0, math.sqrt(snr_per_bit / 7.0)
    else:
        raise ValueError(f"unknown modulation {modulation}")
    return scale * math.erfc(arg)


#: Approximate convolutional coding gain at useful BERs, by code rate.
_CODING_GAIN_DB: Dict[str, float] = {"1/2": 5.0, "2/3": 4.0, "3/4": 3.5}

_BITS_PER_SUBCARRIER: Dict["WifiModulation", int] = {
    WifiModulation.BPSK: 1,
    WifiModulation.QPSK: 2,
    WifiModulation.QAM16: 4,
    WifiModulation.QAM64: 6,
}


class WifiPhyKind(Enum):
    OFDM = "ofdm"  # 802.11g
    DSSS = "dsss"  # 802.11b (includes CCK)


@dataclass(frozen=True)
class WifiRate:
    """One 802.11 rate.

    OFDM rates (802.11g) carry ``bits_per_symbol`` (N_DBPS per 4 µs symbol)
    and a convolutional code rate.  DSSS/CCK rates (802.11b) spread over the
    whole channel: their per-bit SNR is the channel SINR times the
    bandwidth-to-bitrate ratio (processing gain), which is why 1 Mbps Wi-Fi
    decodes far below the SINR any OFDM rate needs.
    """

    mbps: float
    modulation: WifiModulation
    code_rate: str
    bits_per_symbol: int  # N_DBPS for OFDM; unused for DSSS
    kind: WifiPhyKind = WifiPhyKind.OFDM

    def __post_init__(self) -> None:
        # The airtime per MPDU size (filled on first use) and the OFDM BER
        # constants, worked out once per rate.  Plain attributes: equality,
        # hashing and ``replace`` see only the fields.
        object.__setattr__(self, "_airtime", {})
        if self.kind is WifiPhyKind.OFDM:
            object.__setattr__(self, "_coding_gain_db", _CODING_GAIN_DB[self.code_rate])
            object.__setattr__(
                self, "_bits_per_subcarrier", _BITS_PER_SUBCARRIER[self.modulation]
            )
        #: :meth:`ber` is exactly 0.0 at and above this SINR (dB).
        object.__setattr__(self, "ber_zero_sinr_db", ber_zero_cutoff(self.ber))

    def airtime(self, mpdu_bytes: int) -> float:
        """:func:`wifi_frame_duration` of ``mpdu_bytes`` at this rate, memoized."""
        duration = self._airtime.get(mpdu_bytes)
        if duration is None:
            duration = self._airtime[mpdu_bytes] = wifi_frame_duration(mpdu_bytes, self)
        return duration

    def ber(self, sinr_db: float) -> float:
        """Post-decoding BER approximation at the given channel SINR.

        For OFDM we convert the per-symbol SINR to per-bit SNR with the
        modulation order and fold the convolutional code into a coding-gain
        offset.  For DSSS the despreading gain ``10·log10(20 MHz / bitrate)``
        converts channel SINR to per-bit SNR directly (CCK is approximated as
        QPSK with a 3 dB block-coding penalty).  These are the standard
        first-order link abstractions of packet-level simulators.
        """
        if self.kind is WifiPhyKind.DSSS:
            if self.modulation is WifiModulation.CCK:
                # CCK spreads less; 8-chip codewords ~ QPSK with a penalty.
                snr_per_bit = db_to_linear(sinr_db - 3.0) * (20.0 / self.mbps)
                return min(_ber_uncoded(WifiModulation.QPSK, snr_per_bit), 0.5)
            snr_per_bit = db_to_linear(sinr_db) * (20.0 / self.mbps)
            return min(_ber_uncoded(self.modulation, snr_per_bit), 0.5)
        effective_db = sinr_db + self._coding_gain_db
        snr_per_bit = db_to_linear(effective_db) / self._bits_per_subcarrier
        return min(_ber_uncoded(self.modulation, snr_per_bit), 0.5)


WIFI_RATES: Dict[float, WifiRate] = {
    # 802.11b DSSS/CCK
    1.0: WifiRate(1.0, WifiModulation.BPSK, "-", 0, WifiPhyKind.DSSS),
    2.0: WifiRate(2.0, WifiModulation.QPSK, "-", 0, WifiPhyKind.DSSS),
    5.5: WifiRate(5.5, WifiModulation.CCK, "-", 0, WifiPhyKind.DSSS),
    11.0: WifiRate(11.0, WifiModulation.CCK, "-", 0, WifiPhyKind.DSSS),
    # 802.11g OFDM
    6.0: WifiRate(6.0, WifiModulation.BPSK, "1/2", 24),
    9.0: WifiRate(9.0, WifiModulation.BPSK, "3/4", 36),
    12.0: WifiRate(12.0, WifiModulation.QPSK, "1/2", 48),
    18.0: WifiRate(18.0, WifiModulation.QPSK, "3/4", 72),
    24.0: WifiRate(24.0, WifiModulation.QAM16, "1/2", 96),
    36.0: WifiRate(36.0, WifiModulation.QAM16, "3/4", 144),
    48.0: WifiRate(48.0, WifiModulation.QAM64, "2/3", 192),
    54.0: WifiRate(54.0, WifiModulation.QAM64, "3/4", 216),
}


def wifi_rate(mbps: float) -> WifiRate:
    try:
        return WIFI_RATES[float(mbps)]
    except KeyError:
        raise ValueError(f"unsupported 802.11 rate {mbps} Mbps") from None


# ----------------------------------------------------------------------
# BLE GFSK
# ----------------------------------------------------------------------


def ber_gfsk(sinr_db: float) -> float:
    """BLE 1 Mbps GFSK bit error rate (non-coherent FSK approximation)."""
    sinr = db_to_linear(sinr_db)
    return min(0.5 * math.exp(-0.35 * sinr), 0.5)


#: :func:`ber_gfsk` is exactly 0.0 at and above this SINR (dB).
GFSK_BER_ZERO_SINR_DB = ber_zero_cutoff(ber_gfsk)


# ----------------------------------------------------------------------
# Packet error rates
# ----------------------------------------------------------------------


def packet_success_probability(ber: float, n_bits: int) -> float:
    """``(1 - BER)^n_bits`` computed stably in the log domain."""
    if n_bits <= 0:
        return 1.0
    if ber >= 1.0:
        return 0.0
    if ber <= 0.0:
        return 1.0
    log_p = n_bits * math.log1p(-ber)
    if log_p < -700.0:
        return 0.0
    return math.exp(log_p)


# ----------------------------------------------------------------------
# Frame durations
# ----------------------------------------------------------------------

#: 802.11 OFDM PLCP preamble + SIGNAL field.
WIFI_PLCP_PREAMBLE_S = 16 * USEC
WIFI_PLCP_SIGNAL_S = 4 * USEC
WIFI_SYMBOL_S = 4 * USEC
#: 802.11b long PLCP preamble + header (always sent at 1 Mbps).
WIFI_DSSS_PREAMBLE_S = 192 * USEC

#: 802.15.4 2.4 GHz: 250 kbps -> 32 us per byte; SHR+PHR = 6 bytes = 192 us.
ZIGBEE_BYTE_S = 32 * USEC
ZIGBEE_SHR_PHR_S = 6 * ZIGBEE_BYTE_S

#: BLE 1M: 1 us per bit; preamble+access address = 5 bytes = 40 us.
BLE_BIT_S = 1 * USEC
BLE_HEADER_S = 40 * USEC


def wifi_frame_duration(mpdu_bytes: int, rate: WifiRate) -> float:
    """Airtime of an 802.11 frame carrying ``mpdu_bytes`` of MPDU.

    OFDM follows the 802.11 TXTIME equation (16 service + 6 tail bits, symbol
    count rounded up); DSSS/CCK is the long-preamble PLCP plus the PSDU at
    the nominal bit rate.  A 100 B MPDU at 1 Mbps lasts ~1 ms — this is what
    makes the paper's "100 bytes every 1 ms" Wi-Fi workload dominate the
    channel.
    """
    if mpdu_bytes < 0:
        raise ValueError("mpdu_bytes must be non-negative")
    if rate.kind is WifiPhyKind.DSSS:
        return WIFI_DSSS_PREAMBLE_S + (8 * mpdu_bytes / rate.mbps) * USEC
    data_bits = 16 + 8 * mpdu_bytes + 6
    n_symbols = math.ceil(data_bits / rate.bits_per_symbol)
    return WIFI_PLCP_PREAMBLE_S + WIFI_PLCP_SIGNAL_S + n_symbols * WIFI_SYMBOL_S


def zigbee_frame_duration(mpdu_bytes: int) -> float:
    """Airtime of an 802.15.4 frame carrying ``mpdu_bytes`` of MPDU."""
    if mpdu_bytes < 0:
        raise ValueError("mpdu_bytes must be non-negative")
    return ZIGBEE_SHR_PHR_S + mpdu_bytes * ZIGBEE_BYTE_S


def ble_frame_duration(pdu_bytes: int) -> float:
    """Airtime of a BLE 1M PHY packet carrying ``pdu_bytes`` plus 3-byte CRC."""
    if pdu_bytes < 0:
        raise ValueError("pdu_bytes must be non-negative")
    return BLE_HEADER_S + (pdu_bytes + 3) * 8 * BLE_BIT_S
