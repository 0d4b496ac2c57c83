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

import math
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


class RxInfo:
    """What the PHY knows about a received (or lost) frame.

    ``overlaps`` lists the non-own-technology transmissions that overlapped
    the frame, one entry per source: (technology, source name, unfiltered rx
    power dBm, overlap seconds).  A radio's ``RxInfo`` works them out on
    first read (:meth:`Medium.overlaps <repro.phy.medium.Medium.overlaps>`),
    which must come inside the MAC callback the info is passed to and before
    any transmission it starts: any other first read raises RuntimeError.
    ``RxInfo(..., overlaps=[...])`` fixes the list instead.
    """

    __slots__ = ("rx_power_dbm", "success_probability", "min_sinr_db", "_overlaps", "_reception")

    def __init__(
        self,
        rx_power_dbm: float,
        success_probability: float,
        min_sinr_db: float,
        overlaps: Optional[List[Tuple[Technology, str, float, float]]] = None,
        reception: Optional[Tuple[Any, float, int, int]] = None,
    ):
        self.rx_power_dbm = rx_power_dbm
        self.success_probability = success_probability
        self.min_sinr_db = min_sinr_db
        if overlaps is None and reception is None:
            overlaps = []
        self._overlaps = overlaps
        # (radio, lock time, lock epoch, state epoch at the reception's end),
        # until the radio drops it after the MAC callback.
        self._reception = reception

    @property
    def overlaps(self) -> List[Tuple[Technology, str, float, float]]:
        if self._overlaps is None:
            reception = self._reception
            if reception is None or reception[0].medium.state_epoch != reception[3]:
                raise RuntimeError(
                    "RxInfo.overlaps is first read after its MAC callback returned "
                    "or started a transmission"
                )
            radio, start, epoch, _ = reception
            self._overlaps = radio.medium.overlaps(radio, start, epoch)
        return self._overlaps


class _ReceptionContext:
    """Tracks one locked frame: its signal power and interference history.

    ``start`` and ``epoch`` are the lock's time and the medium's state epoch
    when it was taken, the key of the reception's overlaps.
    """

    __slots__ = ("tx", "signal_dbm", "segments", "segment_start", "start", "epoch")

    def __init__(
        self, tx: Transmission, signal_dbm: float, now: float, interference_mw: float, epoch: int
    ):
        self.tx = tx
        self.signal_dbm = signal_dbm
        # Closed segments: (duration_s, interference_mw).
        self.segments: List[Tuple[float, float]] = []
        self.segment_start: Tuple[float, float] = (now, interference_mw)
        self.start = now
        self.epoch = epoch

    def change_interference(self, now: float, interference_mw: float) -> None:
        start, level = self.segment_start
        if now > start:
            self.segments.append((now - start, level))
        self.segment_start = (now, interference_mw)


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
        <repro.phy.medium.Medium.on_radio_mac_changed>`): the kernels decide
        on every assignment whether the MAC listens for medium events.
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
            and (tx.band is self._band or tx.band == self._band)
        ):
            rx_dbm = medium.rx_power_dbm(tx, self)
            if rx_dbm >= self.sensitivity_dbm:
                interference = medium.decoding_interference_mw(self, (tx.tx_id,))
                self._set_lock(
                    _ReceptionContext(tx, rx_dbm, now, interference, medium.state_epoch)
                )
        elif lock is not None and tx.tx_id != lock.tx.tx_id:
            lock.change_interference(
                now, medium.decoding_interference_mw(self, (lock.tx.tx_id,))
            )
        # The MAC's flag is read live (see ``Medium``).
        mac = self._mac
        if mac is not None and getattr(mac, "medium_event_sensitive", True):
            mac.on_medium_event()

    def on_transmission_end(self, tx: Transmission) -> None:
        lock = self._lock
        if lock is not None:
            if tx.tx_id == lock.tx.tx_id:
                self._finish_reception()
            else:
                lock.change_interference(
                    self.sim.now, self.medium.decoding_interference_mw(self, (lock.tx.tx_id,))
                )
        mac = self._mac
        if mac is not None and getattr(mac, "medium_event_sensitive", True):
            mac.on_medium_event()

    def _set_lock(self, lock: Optional[_ReceptionContext]) -> None:
        """Install/clear the reception lock, keeping the medium informed.

        Every lock transition must go through here.  A kernel that
        :attr:`~repro.phy.medium.Medium.keeps_lock_records` hears of it
        through :meth:`VectorMedium.on_radio_lock_changed
        <repro.phy.medium_fast.VectorMedium.on_radio_lock_changed>`: it then
        notifies this radio of no edge but the locked frame's end, and
        writes the segments into the context just before it
        (``VectorMedium._hand_over``).  The loop kernel reads ``_lock`` at
        each edge.
        """
        self._lock = lock
        medium = self.medium
        if medium is not None and medium.keeps_lock_records:
            medium.on_radio_lock_changed(self, lock is not None)

    def _abort_lock(self) -> None:
        if self._lock is None:
            return
        self.frames_lost += 1
        self._set_lock(None)

    def _finish_reception(self) -> None:
        context = self._lock
        assert context is not None
        self._set_lock(None)
        now = self.sim.now
        tx = context.tx
        frame = tx.frame
        signal_dbm = context.signal_dbm
        noise_mw = self.noise_floor_mw
        # The closed segments, then the one the frame's end closes.
        segments = context.segments
        start, level = context.segment_start
        if now > start:
            segments.append((now - start, level))
        success_p = 1.0
        min_sinr = math.inf
        # At or above the frame's cutoff a segment's BER is exactly 0.0 and
        # its success factor exactly 1.0: only the SINR is worked out.
        cutoff = frame.ber_zero_sinr_db
        for seg_duration, interference_mw in segments:
            sinr_db = signal_dbm - mw_to_dbm(noise_mw + interference_mw)
            if sinr_db < min_sinr:
                min_sinr = sinr_db
            if not sinr_db >= cutoff:
                bit_error = frame.ber(sinr_db)
                if bit_error != 0.0:
                    total_bits = max(frame.bits, 1)
                    duration = max(tx.duration, 1e-12)
                    seg_bits = max(1, round(total_bits * seg_duration / duration))
                    success_p *= packet_success_probability(bit_error, seg_bits)
        info = RxInfo(
            rx_power_dbm=signal_dbm,
            success_probability=success_p,
            min_sinr_db=min_sinr if min_sinr != math.inf else 0.0,
            reception=(self, context.start, context.epoch, self.medium.state_epoch),
        )
        if self.energy_meter is not None:
            self.energy_meter.charge_rx(tx.duration)
        # The next draw of the ``phy/rx/<name>`` stream, taken in blocks.
        head = self._rx_head
        if head == len(self._rx_draws):
            self._rx_draws = self._rx_rng.random(_RX_BATCH).tolist()
            head = 0
        self._rx_head = head + 1
        delivered = self._rx_draws[head] < success_p
        mac = self._mac
        trace = self.trace
        if delivered:
            self.frames_received += 1
            if trace.note("phy.rx_ok"):
                trace.store(
                    now, "phy.rx_ok", radio=self.name, source=frame.source,
                    frame_type=frame.frame_type.value,
                )
            if mac is not None:
                mac.on_frame_received(frame, info)
        else:
            self.frames_lost += 1
            if trace.note("phy.rx_lost"):
                trace.store(
                    now, "phy.rx_lost", radio=self.name, source=frame.source,
                    frame_type=frame.frame_type.value, p=success_p,
                )
            if mac is not None:
                mac.on_frame_lost(frame, info)
        # The overlaps are not worked out after the callback: the medium may
        # forget the frames they came from.
        info._reception = None

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
