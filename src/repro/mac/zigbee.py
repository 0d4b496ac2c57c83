"""IEEE 802.15.4 unslotted CSMA/CA MAC.

Implements the CC2420-class MAC behaviour the paper's TelosB motes exhibit:

* unslotted CSMA/CA: random backoff of ``0..2^BE-1`` unit periods (320 µs),
  one CCA (128 µs) per attempt, backoff exponent growing from 3 to 5; a
  frame fails with ``CHANNEL_ACCESS_FAILURE`` at its fifth busy CCA (more
  than ``MAX_CSMA_BACKOFFS`` = 4 busy CCAs);
* energy-detection CCA at −82 dBm — ZigBee defers to *any* energy, which is
  exactly why it starves under Wi-Fi and needs coordination;
* 192 µs RX/TX turnaround, ACKed unicast with up to 3 retransmissions;
* *forced* transmissions that bypass CSMA — used for ACKs (per the standard)
  and for BiCord's cross-technology control packets, which must deliberately
  overlap Wi-Fi traffic.

Clients (the BiCord node, baseline nodes) receive completion callbacks:
``on_send_success(frame)``, ``on_send_failure(frame, reason)`` with reason
``"channel_access_failure"`` or ``"no_ack"``, and ``on_data_received(frame)``
on the receiver side.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..devices.base import Radio, RxInfo
from ..phy.medium import Technology
from ..sim.engine import Event, Simulator
from ..sim.trace import TraceRecorder
from ..sim.units import usec
from .frames import BROADCAST, Frame, FrameType, zigbee_ack_frame

#: 802.15.4 2.4 GHz timings (1 symbol = 16 us).
UNIT_BACKOFF_S = usec(320.0)  # 20 symbols
CCA_S = usec(128.0)  # 8 symbols
TURNAROUND_S = usec(192.0)  # 12 symbols
ACK_WAIT_S = usec(864.0)  # macAckWaitDuration = 54 symbols

MAC_MIN_BE = 3
MAC_MAX_BE = 5
MAX_CSMA_BACKOFFS = 4
MAX_FRAME_RETRIES = 3

CHANNEL_ACCESS_FAILURE = "channel_access_failure"
NO_ACK = "no_ack"


class ZigbeeMac:
    """Unslotted CSMA/CA MAC bound to one ZigBee radio."""

    #: ZigBee CCA is sampled at scheduled instants, never re-planned on
    #: medium events (``on_medium_event`` is a no-op), so the medium may
    #: skip this MAC's radio when nothing else needs the notification.
    medium_event_sensitive = False

    def __init__(
        self,
        radio: Radio,
        sim: Simulator,
        trace: Optional[TraceRecorder] = None,
        tx_power_dbm: float = 0.0,
        cca_threshold_dbm: float = -82.0,
    ):
        if radio.technology is not Technology.ZIGBEE:
            raise ValueError("ZigbeeMac requires a ZigBee radio")
        self.radio = radio
        self.sim = sim
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        self.tx_power_dbm = tx_power_dbm
        self.cca_threshold_dbm = cca_threshold_dbm
        #: Per-frame retransmission budget; BiCord lowers it because its
        #: signaling loop owns retries (a missing ACK means "signal Wi-Fi").
        self.max_frame_retries = MAX_FRAME_RETRIES
        #: CCA attempts per frame; BiCord lowers it so a busy channel is
        #: reported within a few ms instead of after the full BE ladder.
        self.max_csma_backoffs = MAX_CSMA_BACKOFFS
        radio.mac = self

        self.queue: Deque[Frame] = deque()
        self._current: Optional[Frame] = None
        self._nb = 0  # CSMA backoff attempts for the current frame
        self._be = MAC_MIN_BE
        self._retries = 0
        self._pending_event: Optional[Event] = None
        self._ack_timer: Optional[Event] = None
        self._awaiting_ack = False
        self._forced_queue: Deque[Frame] = deque()
        self._rx_dedup: Dict[str, int] = {}
        # Backoff stream, resolved once (streams.stream caches by name; this
        # skips the f-string + dict probe on every CSMA backoff).
        self._backoff_rng = radio.streams.stream(f"mac/zigbee/{radio.name}")

        # Client callbacks (set by the device / protocol layer).
        self.on_send_success: Optional[Callable[[Frame], None]] = None
        self.on_send_failure: Optional[Callable[[Frame, str], None]] = None
        self.on_data_received: Optional[Callable[[Frame, RxInfo], None]] = None
        self.on_control_received: Optional[Callable[[Frame, RxInfo], None]] = None

        # Statistics
        self.data_sent_attempts = 0
        self.data_delivered = 0
        self.channel_access_failures = 0
        self.ack_failures = 0
        self.cca_busy_count = 0
        self.cca_clear_count = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Queue ``frame`` for CSMA/CA transmission."""
        self.queue.append(frame)
        self._maybe_start()

    def send_forced(self, frame: Frame, power_dbm: Optional[float] = None) -> None:
        """Transmit without CSMA (control packets, ACKs).

        Forced frames wait only for the radio to become free (our own ongoing
        transmission), never for the channel.  No ACK is awaited.
        """
        if power_dbm is not None:
            frame.meta["tx_power_dbm"] = power_dbm
        self._forced_queue.append(frame)
        self._maybe_start_forced()

    def send_immediate(self, frame: Frame, power_dbm: Optional[float] = None) -> None:
        """Transmit without CSMA but *with* the ACK/retry machinery.

        Used by BiCord's piggyback extension: a unicast control packet that
        doubles as a data packet must overlap the Wi-Fi traffic (no CCA) yet
        still be acknowledged.  The frame becomes the MAC's current
        transaction; completion is reported through the usual
        ``on_send_success`` / ``on_send_failure`` callbacks.
        """
        if self._current is not None:
            raise RuntimeError(
                f"MAC {self.radio.name} already has a transaction in progress"
            )
        if power_dbm is not None:
            frame.meta["tx_power_dbm"] = power_dbm
        self._current = frame
        self._nb = 0
        self._be = MAC_MIN_BE
        self._retries = self.max_frame_retries  # single attempt
        self._pending_event = self.sim.schedule(TURNAROUND_S, self._transmit_current)

    def cca(self) -> bool:
        """One clear-channel assessment: True if the channel is idle.

        Each assessment costs 8 symbols (128 µs) of receiver current — the
        idle-listening energy that dominates low-power budgets and that the
        paper's energy argument (Sec. VII-B) charges against passive
        channel-assessment schemes.
        """
        meter = self.radio.energy_meter
        if meter is not None:
            meter.charge_listen(CCA_S, label="cca")
        idle = (
            not self.radio.is_receiving
            and self.radio.energy_dbm() < self.cca_threshold_dbm
        )
        if idle:
            self.cca_clear_count += 1
        else:
            self.cca_busy_count += 1
        return idle

    @property
    def busy(self) -> bool:
        return (
            self._current is not None
            or bool(self.queue)
            or bool(self._forced_queue)
            or self.radio.is_transmitting
        )

    # ------------------------------------------------------------------
    # Forced path
    # ------------------------------------------------------------------
    def _maybe_start_forced(self) -> None:
        if not self._forced_queue or self.radio.is_transmitting:
            return
        frame = self._forced_queue.popleft()
        power = frame.meta.get("tx_power_dbm", self.tx_power_dbm)
        self.trace.record(
            self.sim.now, "zigbee.tx_forced", mac=self.radio.name,
            frame_type=frame.frame_type.value,
        )
        self.radio.transmit_frame(frame, power)

    # ------------------------------------------------------------------
    # CSMA/CA state machine
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._current is not None or not self.queue:
            return
        if self.radio.is_transmitting:
            return
        self._current = self.queue.popleft()
        self._nb = 0
        self._be = MAC_MIN_BE
        self._retries = 0
        self._backoff()

    def _backoff(self) -> None:
        periods = int(self._backoff_rng.integers(0, 2**self._be))
        delay = periods * UNIT_BACKOFF_S + CCA_S
        self._pending_event = self.sim.schedule(delay, self._after_cca)

    def _after_cca(self) -> None:
        self._pending_event = None
        frame = self._current
        if frame is None:
            return
        if self.cca():
            self._pending_event = self.sim.schedule(TURNAROUND_S, self._transmit_current)
            return
        self._nb += 1
        self._be = min(self._be + 1, MAC_MAX_BE)
        if self._nb > self.max_csma_backoffs:
            self.channel_access_failures += 1
            self._current = None
            self.trace.record(
                self.sim.now, "zigbee.access_failure", mac=self.radio.name, seq=frame.seq
            )
            if self.on_send_failure is not None:
                self.on_send_failure(frame, CHANNEL_ACCESS_FAILURE)
            self._maybe_start()
            return
        self._backoff()

    def _transmit_current(self) -> None:
        self._pending_event = None
        frame = self._current
        if frame is None:
            return
        if self.radio.is_transmitting:
            # A forced frame (ACK/control) grabbed the radio during our
            # turnaround; retry shortly after it finishes.
            self._pending_event = self.sim.schedule(UNIT_BACKOFF_S, self._transmit_current)
            return
        if frame.frame_type is FrameType.DATA:
            self.data_sent_attempts += 1
        power = frame.meta.get("tx_power_dbm", self.tx_power_dbm)
        self.trace.record(
            self.sim.now, "zigbee.tx", mac=self.radio.name, seq=frame.seq,
            frame_type=frame.frame_type.value,
        )
        self.radio.transmit_frame(frame, power)

    def on_transmit_complete(self, frame: Frame) -> None:
        if frame is self._current:
            if (
                frame.frame_type in (FrameType.DATA, FrameType.CONTROL)
                and not frame.is_broadcast
            ):
                self._awaiting_ack = True
                self._ack_timer = self.sim.schedule(ACK_WAIT_S, self._ack_timeout)
            else:
                self._complete_success(frame)
        on_complete = frame.meta.get("on_complete")
        if on_complete is not None:
            on_complete(frame)
        self._maybe_start_forced()
        # A data frame queued while the radio was busy (e.g. during a forced
        # control packet) must be able to start its CSMA procedure now.
        self._maybe_start()

    def _complete_success(self, frame: Frame) -> None:
        self._current = None
        self._awaiting_ack = False
        if frame.frame_type is FrameType.DATA:
            self.data_delivered += 1
        if self.on_send_success is not None:
            self.on_send_success(frame)
        self._maybe_start()

    def _ack_timeout(self) -> None:
        self._ack_timer = None
        if not self._awaiting_ack or self._current is None:
            return
        meter = self.radio.energy_meter
        if meter is not None:
            # The radio listened for the whole ACK wait and heard nothing.
            meter.charge_listen(ACK_WAIT_S, label="ack_wait")
        self._awaiting_ack = False
        frame = self._current
        self._retries += 1
        if self._retries > self.max_frame_retries:
            self.ack_failures += 1
            self._current = None
            self.trace.record(self.sim.now, "zigbee.no_ack", mac=self.radio.name, seq=frame.seq)
            if self.on_send_failure is not None:
                self.on_send_failure(frame, NO_ACK)
            self._maybe_start()
            return
        # Retransmission runs the CSMA procedure again (802.15.4 §7.5.6.4).
        self._nb = 0
        self._be = MAC_MIN_BE
        self._backoff()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:
        if frame.frame_type is FrameType.ACK and frame.destination == self.radio.name:
            self._handle_ack(frame)
            return
        if frame.frame_type is FrameType.DATA and frame.destination == self.radio.name:
            self.sim.schedule(TURNAROUND_S, self._send_ack, frame)
            last_seq = self._rx_dedup.get(frame.source)
            if last_seq == frame.seq:
                return  # duplicate of an already-delivered frame
            self._rx_dedup[frame.source] = frame.seq
            if self.on_data_received is not None:
                self.on_data_received(frame, info)
            return
        if frame.frame_type is FrameType.CONTROL:
            if frame.destination == self.radio.name:
                # Piggybacked control packet: acknowledge like data, dedupe.
                self.sim.schedule(TURNAROUND_S, self._send_ack, frame)
                last_seq = self._rx_dedup.get(frame.source)
                if last_seq == frame.seq:
                    return
                self._rx_dedup[frame.source] = frame.seq
            if self.on_control_received is not None:
                self.on_control_received(frame, info)

    def _send_ack(self, data: Frame) -> None:
        ack = zigbee_ack_frame(self.radio.name, data.source, data.seq)
        self.send_forced(ack)

    def _handle_ack(self, ack: Frame) -> None:
        if not self._awaiting_ack or self._current is None:
            return
        if ack.meta.get("acked_seq") != self._current.seq:
            return
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._complete_success(self._current)

    def on_frame_lost(self, frame: Frame, info: RxInfo) -> None:
        self.trace.record(
            self.sim.now, "zigbee.rx_corrupt", mac=self.radio.name,
            frame_type=frame.frame_type.value, source=frame.source,
        )

    def on_medium_event(self) -> None:
        """ZigBee CCA is sampled, not event-driven; nothing to re-plan here."""
