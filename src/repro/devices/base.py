"""Radios and devices.

A :class:`Radio` is the PHY endpoint living on the
:class:`~repro.phy.medium.Medium`: it transmits frames, locks onto incoming
frames of its own technology, tracks the interference each locked frame
experiences (as piecewise-constant segments), and at frame end draws the
reception outcome from the segment SINRs and the frame's BER curve.

A :class:`Device` couples a radio with a MAC object and a position; concrete
devices (Wi-Fi appliance, ZigBee node, interferers) live in sibling modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from ..phy.medium import Medium, Technology, Transmission
from ..phy.modulation import packet_success_probability
from ..phy.propagation import Position
from ..phy.spectrum import Band
from ..sim.engine import Simulator
from ..sim.rng import RandomStreams
from ..sim.trace import TraceRecorder
from ..sim.units import dbm_to_mw, mw_to_dbm, thermal_noise_dbm

#: Reception-outcome uniforms drawn per refill of a radio's buffer.  One
#: ``Generator.random(size=_RX_BATCH)`` call returns the same values as that
#: many scalar draws from the stream.
_RX_BATCH = 16


@dataclass
class RxInfo:
    """What the PHY knows about a received (or lost) frame."""

    rx_power_dbm: float
    success_probability: float
    min_sinr_db: float
    #: Non-own-technology transmissions that overlapped the frame:
    #: (technology, source name, unfiltered rx power dBm, overlap seconds).
    overlaps: List[Tuple[Technology, str, float, float]] = field(default_factory=list)


class _ReceptionContext:
    """Tracks one locked frame: its signal power and interference history."""

    __slots__ = ("tx", "signal_dbm", "segments", "segment_start", "overlap_log", "_overlap_open")

    def __init__(self, tx: Transmission, signal_dbm: float, now: float, interference_mw: float):
        self.tx = tx
        self.signal_dbm = signal_dbm
        # Closed segments: (duration_s, interference_mw).
        self.segments: List[Tuple[float, float]] = []
        self.segment_start: Tuple[float, float] = (now, interference_mw)
        # Cross-technology overlaps: source name -> [technology, rx_dbm,
        # accumulated_s], and the overlaps still open by tx id.  Most frames
        # see none, so both dicts are made on first use.
        self.overlap_log: Optional[dict] = None
        self._overlap_open: Optional[dict] = None

    def change_interference(self, now: float, interference_mw: float) -> None:
        start, level = self.segment_start
        if now > start:
            self.segments.append((now - start, level))
        self.segment_start = (now, interference_mw)

    def open_overlap(self, now: float, other: Transmission, rx_dbm: float) -> None:
        if self._overlap_open is None:
            self._overlap_open = {}
        self._overlap_open[other.tx_id] = (now, other.technology, other.source_name, rx_dbm)

    def close_overlap(self, now: float, other: Transmission) -> None:
        if self._overlap_open is None:
            return
        opened = self._overlap_open.pop(other.tx_id, None)
        if opened is not None:
            self._log_overlap(now, opened)

    def _log_overlap(self, now: float, opened: tuple) -> None:
        start, technology, source_name, rx_dbm = opened
        if self.overlap_log is None:
            self.overlap_log = {}
        entry = self.overlap_log.setdefault(source_name, [technology, rx_dbm, 0.0])
        entry[1] = max(entry[1], rx_dbm)
        entry[2] += now - start

    def finalize(self, now: float) -> None:
        self.change_interference(now, 0.0)
        if self._overlap_open:
            for opened in self._overlap_open.values():
                self._log_overlap(now, opened)
            self._overlap_open = None


class Radio:
    """A half-duplex transceiver attached to the medium."""

    def __init__(
        self,
        name: str,
        position: Position,
        band: Band,
        technology: Technology,
        sim: Simulator,
        streams: RandomStreams,
        trace: Optional[TraceRecorder] = None,
        sensitivity_dbm: float = -85.0,
        noise_figure_db: float = 7.0,
    ):
        self.name = name
        self.position = position
        self._band = band
        self.technology = technology
        self.sim = sim
        self.streams = streams
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        self.sensitivity_dbm = sensitivity_dbm
        #: Fixed at construction: a retune keeps the bandwidth (see
        #: :meth:`retune`).  ``noise_floor_mw`` is the same level in mW.
        self.noise_floor_dbm = thermal_noise_dbm(band.bandwidth_hz, noise_figure_db)
        self.noise_floor_mw = dbm_to_mw(self.noise_floor_dbm)
        self.medium: Optional[Medium] = None
        self._mac: Any = None  # set by the MAC layer (see the ``mac`` property)
        self.energy_meter: Any = None  # optional; see repro.devices.energy
        self.enabled = True
        self.current_tx: Optional[Transmission] = None
        self._lock: Optional[_ReceptionContext] = None
        # Reception-outcome stream, resolved once, and its unused draws.
        self._rx_rng = streams.stream(f"phy/rx/{name}")
        self._rx_draws: List[float] = []
        self._rx_head = 0
        # PHY statistics
        self.frames_sent = 0
        self.frames_received = 0
        self.frames_lost = 0
        self.tx_airtime = 0.0

    # ------------------------------------------------------------------
    # Tuning
    # ------------------------------------------------------------------
    @property
    def band(self) -> Band:
        """The current receive/transmit band.

        Assigning a different :class:`Band` notifies the medium (see
        :meth:`Medium.on_radio_retuned <repro.phy.medium.Medium.on_radio_retuned>`)
        so kernels that precompute per-band tables can refresh them; prefer
        the explicit :meth:`retune` in new code.
        """
        return self._band

    @band.setter
    def band(self, band: Band) -> None:
        previous = getattr(self, "_band", None)
        self._band = band
        if band is not previous:
            medium = getattr(self, "medium", None)
            if medium is not None:
                medium.on_radio_retuned(self)

    def retune(self, band: Band) -> None:
        """Switch to ``band`` (e.g. a BLE hop).  The noise floor is unchanged:
        all modeled bands share a bandwidth per technology."""
        self.band = band

    @property
    def mac(self) -> Any:
        """The attached MAC layer.

        Assigning notifies the medium (:meth:`Medium.on_radio_mac_changed
        <repro.phy.medium.Medium.on_radio_mac_changed>`): kernels that skip
        no-op medium-event notifications re-read the MAC's
        ``medium_event_sensitive`` flag on every assignment.
        """
        return self._mac

    @mac.setter
    def mac(self, mac: Any) -> None:
        self._mac = mac
        medium = getattr(self, "medium", None)
        if medium is not None:
            medium.on_radio_mac_changed(self)

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def transmit_frame(self, frame: Any, power_dbm: float) -> Transmission:
        """Send ``frame`` at ``power_dbm``.  Drops any in-progress reception."""
        if self.medium is None:
            raise RuntimeError(f"radio {self.name} is not attached to a medium")
        if self.current_tx is not None:
            raise RuntimeError(f"radio {self.name} is already transmitting")
        if self._lock is not None:
            # Half duplex: transmitting aborts the frame being received.
            self._abort_lock()
        duration = frame.duration()
        tx = self.medium.transmit(
            self, duration, power_dbm, self.band, self.technology, frame=frame
        )
        self.current_tx = tx
        self.frames_sent += 1
        self.tx_airtime += duration
        if self.energy_meter is not None:
            self.energy_meter.charge_tx(duration, power_dbm)
        return tx

    def on_own_transmission_end(self, tx: Transmission) -> None:
        if self.current_tx is tx:
            self.current_tx = None
        if self._mac is not None and tx.frame is not None:
            self._mac.on_transmit_complete(tx.frame)

    @property
    def is_transmitting(self) -> bool:
        return self.current_tx is not None

    # ------------------------------------------------------------------
    # Receive path (called by the medium)
    # ------------------------------------------------------------------
    def on_transmission_start(self, tx: Transmission) -> None:
        medium = self.medium
        if medium is None:
            return
        now = self.sim.now
        lock = self._lock
        if (
            lock is None
            and self.enabled
            and self.current_tx is None
            and tx.frame is not None
            and tx.technology is self.technology
            and tx.band == self.band
        ):
            rx_dbm = medium.rx_power_dbm(tx, self)
            if rx_dbm >= self.sensitivity_dbm:
                interference = medium.decoding_interference_mw(self, (tx.tx_id,))
                lock = _ReceptionContext(tx, rx_dbm, now, interference)
                if not self._set_lock(lock):
                    # Record any cross-technology transmissions already on the air.
                    for other in medium.active_transmissions():
                        if other.technology is not self.technology and other.source is not self:
                            lock.open_overlap(now, other, medium.rx_power_dbm(other, self))
        elif lock is not None and tx.tx_id != lock.tx.tx_id:
            lock.change_interference(
                now, medium.decoding_interference_mw(self, (lock.tx.tx_id,))
            )
            if tx.technology is not self.technology:
                lock.open_overlap(now, tx, medium.rx_power_dbm(tx, self))
        self._notify_mac()

    def on_transmission_end(self, tx: Transmission) -> None:
        lock = self._lock
        if lock is not None:
            if tx.tx_id == lock.tx.tx_id:
                self._finish_reception()
            else:
                now = self.sim.now
                lock.change_interference(
                    now, self.medium.decoding_interference_mw(self, (lock.tx.tx_id,))
                )
                if tx.technology is not self.technology:
                    lock.close_overlap(now, tx)
        self._notify_mac()

    def _set_lock(self, lock: Optional[_ReceptionContext]) -> bool:
        """Install/clear the reception lock, keeping the medium informed.

        Kernels that skip no-op notifications track the locked set through
        :meth:`Medium.on_radio_lock_changed
        <repro.phy.medium.Medium.on_radio_lock_changed>`; every lock
        transition must go through here.  Returns True when the medium keeps
        the lock's record: it then notifies this radio of no edge but the
        locked frame's end, and writes the segments and overlaps into the
        context just before it (``VectorMedium._hand_over``).
        """
        self._lock = lock
        medium = self.medium
        return medium is not None and bool(medium.on_radio_lock_changed(self, lock is not None))

    def _abort_lock(self) -> None:
        if self._lock is None:
            return
        self.frames_lost += 1
        self._set_lock(None)

    def _finish_reception(self) -> None:
        context = self._lock
        assert context is not None
        self._set_lock(None)
        context.finalize(self.sim.now)
        tx = context.tx
        frame = tx.frame
        ber = frame.ber
        signal_dbm = context.signal_dbm
        noise_mw = self.noise_floor_mw
        total_bits = max(frame.bits, 1)
        duration = max(tx.duration, 1e-12)
        success_p = 1.0
        min_sinr = float("inf")
        segments = context.segments
        # SINR and BER are pure in the segment's interference level, so a
        # reception computes them once per distinct level.
        seen = {} if len(segments) > 1 else None
        for seg_duration, interference_mw in segments:
            known = None if seen is None else seen.get(interference_mw)
            if known is None:
                sinr_db = signal_dbm - mw_to_dbm(noise_mw + interference_mw)
                bit_error = ber(sinr_db)
                if seen is not None:
                    seen[interference_mw] = (sinr_db, bit_error)
            else:
                sinr_db, bit_error = known
            if sinr_db < min_sinr:
                min_sinr = sinr_db
            # A zero BER's success factor is exactly 1.0.
            if bit_error != 0.0:
                seg_bits = max(1, round(total_bits * seg_duration / duration))
                success_p *= packet_success_probability(bit_error, seg_bits)
        overlap_log = context.overlap_log
        overlaps = [] if overlap_log is None else [
            (tech, source_name, rx_dbm, seconds)
            for source_name, (tech, rx_dbm, seconds) in overlap_log.items()
        ]
        info = RxInfo(
            rx_power_dbm=signal_dbm,
            success_probability=success_p,
            min_sinr_db=min_sinr if min_sinr != float("inf") else 0.0,
            overlaps=overlaps,
        )
        if self.energy_meter is not None:
            self.energy_meter.charge_rx(tx.duration)
        delivered = self._rx_uniform() < success_p
        mac = self._mac
        if delivered:
            self.frames_received += 1
            self.trace.record(
                self.sim.now, "phy.rx_ok", radio=self.name, source=frame.source,
                frame_type=frame.frame_type.value,
            )
            if mac is not None:
                mac.on_frame_received(frame, info)
        else:
            self.frames_lost += 1
            self.trace.record(
                self.sim.now, "phy.rx_lost", radio=self.name, source=frame.source,
                frame_type=frame.frame_type.value, p=success_p,
            )
            if mac is not None:
                mac.on_frame_lost(frame, info)

    def _rx_uniform(self) -> float:
        """The next draw of the ``phy/rx/<name>`` stream, taken in blocks."""
        head = self._rx_head
        if head == len(self._rx_draws):
            self._rx_draws = self._rx_rng.random(_RX_BATCH).tolist()
            head = 0
        self._rx_head = head + 1
        return self._rx_draws[head]

    def _notify_mac(self) -> None:
        if self._mac is not None:
            self._mac.on_medium_event()

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def energy_dbm(self) -> float:
        """In-band energy as seen by energy-detection CCA (excludes own tx)."""
        return self.medium.inband_energy_dbm(self)

    def energy_dbm_of(self, technologies) -> float:
        """In-band energy restricted to the given technologies (plus noise)."""
        return self.medium.inband_energy_dbm(self, technologies=technologies)

    @property
    def is_receiving(self) -> bool:
        return self._lock is not None

    def receiving_frame(self) -> Optional[Any]:
        return self._lock.tx.frame if self._lock is not None else None

    def receiving_transmission(self) -> Optional[Transmission]:
        """The transmission currently locked for reception, if any."""
        return self._lock.tx if self._lock is not None else None

    def move_to(self, position: Position) -> None:
        """Relocate the radio (mobility experiments).

        Active transmissions keep their cached rx powers — frames are short
        relative to motion, so this is equivalent to sampling the position at
        frame start.  The channel's deterministic gain cache is invalidated
        (position epoch advance) so every *subsequent* frame sees the new
        distance.
        """
        self.position = position
        if self.medium is not None:
            self.medium.channel.invalidate_gains()


class Device:
    """Base class binding a radio and a MAC together."""

    def __init__(self, name: str, radio: Radio):
        self.name = name
        self.radio = radio

    @property
    def position(self) -> Position:
        return self.radio.position

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
