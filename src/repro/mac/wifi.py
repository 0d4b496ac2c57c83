"""IEEE 802.11 DCF MAC (distributed coordination function).

Implements the subset of 802.11 that matters for coexistence studies:

* carrier sensing with the *asymmetry* the paper builds on — Wi-Fi preamble
  detection is sensitive (−82 dBm) for other Wi-Fi frames, but plain energy
  detection for non-Wi-Fi signals is poor (−70 dBm threshold *plus* a
  configurable narrowband penalty modeling ED averaging over the 20 MHz
  channel), so Wi-Fi routinely talks over ZigBee unless the ZigBee node is
  very close;
* DIFS + slotted random backoff with contention-window doubling and freezing
  while the medium is busy;
* unicast ACKs with retransmission up to a retry limit;
* NAV (virtual carrier sensing) honoring CTS frames — the mechanism both
  BiCord and ECC use to carve white spaces out of Wi-Fi airtime;
* transmission suppression windows (the CTS *sender* must also stay silent
  during the white space it granted).

The backoff countdown is scheduled analytically (one event per completion or
freeze) instead of per 9 µs slot, so event counts scale with traffic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from ..devices.base import Radio, RxInfo
from ..phy.medium import Technology
from ..phy.modulation import WifiRate, wifi_rate
from ..sim.engine import Event, Simulator
from ..sim.trace import TraceRecorder
from ..sim.units import mw_to_dbm, usec
from .frames import (
    BROADCAST,
    WIFI_ACK_MPDU_BYTES,
    Frame,
    FrameType,
    wifi_ack_frame,
    wifi_cts_frame,
)

#: 802.11g OFDM MAC timings.
SLOT_S = usec(9.0)
SIFS_S = usec(16.0)
DIFS_S = SIFS_S + 2 * SLOT_S  # 34 us
ACK_TIMEOUT_MARGIN_S = usec(25.0)
#: Carrier-sense vulnerability window: a station whose backoff expires cannot
#: see transmissions that started less than this long ago (CCA assessment +
#: RX/TX turnaround).  This is what makes two stations whose counters reach
#: zero in the same slot *collide* instead of magically yielding — without
#: it the simulated DCF would be collision-free and overshoot Bianchi's
#: saturation throughput.
SENSE_DELAY_S = usec(4.0)

CW_MIN = 15
CW_MAX = 1023
RETRY_LIMIT = 7


class WifiMac:
    """DCF MAC bound to one Wi-Fi radio."""

    #: Whether a medium event could change the DCF plan, read live by the
    #: medium at every edge.  It is false exactly while the MAC is idle (no
    #: countdown; an ACK pending or an empty queue): :meth:`_evaluate` sets
    #: it on every pass, and runs on construction, on every way into idle
    #: (a countdown that finds or leaves the queue empty, the start of an
    #: ACK wait) and on every way out (a queued frame, an ACK or its
    #: timeout, a countdown).
    medium_event_sensitive = True

    def __init__(
        self,
        radio: Radio,
        sim: Simulator,
        trace: Optional[TraceRecorder] = None,
        data_rate_mbps: float = 24.0,
        basic_rate_mbps: float = 6.0,
        tx_power_dbm: float = 20.0,
        preamble_threshold_dbm: float = -82.0,
        ed_threshold_dbm: float = -70.0,
        nonwifi_ed_penalty_db: float = 20.0,
    ):
        if radio.technology is not Technology.WIFI:
            raise ValueError("WifiMac requires a Wi-Fi radio")
        self.radio = radio
        self.sim = sim
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        self.data_rate: WifiRate = wifi_rate(data_rate_mbps)
        self.basic_rate: WifiRate = wifi_rate(basic_rate_mbps)
        # How long after a unicast DATA frame's end its ACK may still come.
        self._ack_timeout_s = (
            SIFS_S + self.basic_rate.airtime(WIFI_ACK_MPDU_BYTES) + ACK_TIMEOUT_MARGIN_S
        )
        self.tx_power_dbm = tx_power_dbm
        self.preamble_threshold_dbm = preamble_threshold_dbm
        #: Effective CCA-ED threshold applied to non-Wi-Fi in-band energy.
        self.effective_ed_dbm = ed_threshold_dbm + nonwifi_ed_penalty_db
        radio.mac = self

        self.queue: Deque[Frame] = deque()
        self.nav_until = 0.0
        self.suppressed_until = 0.0
        self._cw = CW_MIN
        self._retries = 0
        self._backoff_slots: Optional[int] = None
        self._countdown_event: Optional[Event] = None
        self._countdown_started: Optional[float] = None
        self._wakeup_event: Optional[Event] = None
        self._ack_timer: Optional[Event] = None
        self._awaiting_ack_for: Optional[Frame] = None
        # Carrier-sense verdict memo, valid for one medium state epoch (the
        # active set — and hence the sensed power — is frozen between epochs).
        self._sense_epoch = -1
        self._sense_busy = False
        # Hooks
        self.frame_listeners: List[Callable[[Frame, RxInfo], None]] = []
        self.sent_listeners: List[Callable[[Frame], None]] = []
        self.on_nav_set: Optional[Callable[[Frame, float], None]] = None
        # Statistics
        self.data_sent = 0
        self.data_delivered = 0
        self.data_dropped = 0
        self.acks_missed = 0
        self.delays: List[float] = []
        #: (delay, priority) per delivered frame — feeds the Fig. 13 split.
        self.delay_records: List[tuple] = []
        self.delivered_payload_bytes = 0
        self._evaluate()  # idle: nothing queued yet

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enqueue(self, frame: Frame) -> None:
        """Queue a frame for DCF transmission."""
        self.queue.append(frame)
        self._evaluate()

    def enqueue_front(self, frame: Frame) -> None:
        """Queue a frame ahead of everything else (used for CTS-to-self)."""
        self.queue.appendleft(frame)
        self._evaluate()

    def reserve_whitespace(self, duration: float, **meta: Any) -> Frame:
        """Issue a CTS-to-self that silences Wi-Fi for ``duration`` seconds.

        The sender suppresses itself for the same window once the CTS is on
        the air.  Returns the CTS frame (its ``meta`` carries the caller's
        annotations, e.g. which coordination round this white space serves).
        """
        cts = wifi_cts_frame(self.radio.name, duration, self.basic_rate, **meta)
        self.enqueue_front(cts)
        return cts

    def suppress_until(self, time: float) -> None:
        """Forbid transmissions (but not reception) until ``time``."""
        if time > self.suppressed_until:
            self.suppressed_until = time
            self._schedule_wakeup(time)
        self._evaluate()

    def queue_length(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # Carrier sensing
    # ------------------------------------------------------------------
    def _medium_busy(self, min_age: float = 0.0) -> bool:
        """Carrier sensing.  ``min_age > 0`` ignores transmissions (and frame
        locks) younger than the sense delay — the state a station actually
        perceives at the instant its backoff expires."""
        radio = self.radio
        if radio.is_transmitting:
            return True
        now = self.sim.now
        if now < self.nav_until:
            return True
        if radio.is_receiving:
            lock = radio.receiving_transmission()
            if lock is None or now - lock.start >= min_age:
                return True
        medium = radio.medium
        cacheable = min_age == 0.0
        if cacheable and self._sense_epoch == medium.state_epoch:
            return self._sense_busy
        wifi_mw, other_mw = medium.cca_power_mw(radio, now, min_age)
        busy = (
            mw_to_dbm(wifi_mw) >= self.preamble_threshold_dbm
            or mw_to_dbm(other_mw) >= self.effective_ed_dbm
        )
        if cacheable:
            self._sense_epoch = medium.state_epoch
            self._sense_busy = busy
        return busy

    def _tx_allowed(self) -> bool:
        return self.sim.now >= self.suppressed_until

    # ------------------------------------------------------------------
    # Backoff engine
    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        """Re-plan the countdown after any state change."""
        countdown = self._countdown_event
        if countdown is None and (self._awaiting_ack_for is not None or not self.queue):
            # Idle: nothing to contend for and no countdown to freeze, so the
            # carrier-sense verdict could change nothing, nor could a medium
            # event until the MAC leaves idle.
            self.medium_event_sensitive = False
            return
        self.medium_event_sensitive = True
        if self._medium_busy() or not self._tx_allowed():
            if countdown is not None:
                self._freeze()
            return
        if countdown is not None:
            return  # countdown already running
        if self._backoff_slots is None:
            rng = self.radio.streams.stream(f"mac/wifi/{self.radio.name}")
            self._backoff_slots = int(rng.integers(0, self._cw + 1))
        delay = DIFS_S + self._backoff_slots * SLOT_S
        self._countdown_started = self.sim.now
        self._countdown_event = self.sim.schedule(delay, self._countdown_complete)

    def _freeze(self) -> None:
        assert self._countdown_event is not None and self._countdown_started is not None
        if self._countdown_event.time - self.sim.now <= SENSE_DELAY_S:
            # The backoff expires within the carrier-sense window: the
            # decision to transmit has effectively been made already.  Let
            # the completion fire; it will ignore same-slot transmissions
            # and collide, exactly as real slotted DCF does.
            return
        self._countdown_event.cancel()
        elapsed = self.sim.now - self._countdown_started - DIFS_S
        if elapsed > 0 and self._backoff_slots:
            decremented = min(self._backoff_slots, int(elapsed / SLOT_S))
            self._backoff_slots -= decremented
        self._countdown_event = None
        self._countdown_started = None

    def _countdown_complete(self) -> None:
        self._countdown_event = None
        self._countdown_started = None
        self._backoff_slots = None
        if self.queue and not self._medium_busy(min_age=SENSE_DELAY_S) and self._tx_allowed():
            self._transmit(self.queue.popleft())
            if self.queue:
                return  # still contending; carrier sense reads busy while it sends
        self._evaluate()

    def _transmit(self, frame: Frame) -> None:
        if frame.frame_type is FrameType.DATA:
            self.data_sent += 1
        trace = self.trace
        if trace.note("wifi.tx"):
            trace.store(
                self.sim.now, "wifi.tx", mac=self.radio.name,
                frame_type=frame.frame_type.value, dest=frame.destination, seq=frame.seq,
            )
        self.radio.transmit_frame(frame, self.tx_power_dbm)

    # ------------------------------------------------------------------
    # Radio callbacks
    # ------------------------------------------------------------------
    def on_medium_event(self) -> None:
        self._evaluate()

    def on_transmit_complete(self, frame: Frame) -> None:
        if frame.frame_type is FrameType.DATA and not frame.is_broadcast:
            self._awaiting_ack_for = frame
            self._ack_timer = self.sim.schedule(self._ack_timeout_s, self._ack_timeout)
            self._evaluate()  # idle until the ACK or its timeout
        elif frame.frame_type is FrameType.CTS:
            nav = frame.meta.get("nav_duration", 0.0)
            self.suppress_until(self.sim.now + nav)
            self._finish_transaction()
        else:
            self._finish_transaction()
        for listener in self.sent_listeners:
            listener(frame)

    def _finish_transaction(self) -> None:
        self._cw = CW_MIN
        self._retries = 0
        self._awaiting_ack_for = None
        self._evaluate()

    def _ack_timeout(self) -> None:
        self._ack_timer = None
        frame = self._awaiting_ack_for
        if frame is None:
            return
        self._awaiting_ack_for = None
        self.acks_missed += 1
        self._retries += 1
        if self._retries > RETRY_LIMIT:
            self.data_dropped += 1
            self.trace.record(self.sim.now, "wifi.drop", mac=self.radio.name, seq=frame.seq)
            self._cw = CW_MIN
            self._retries = 0
        else:
            self._cw = min(2 * self._cw + 1, CW_MAX)
            self.queue.appendleft(frame)
        self._evaluate()

    def on_frame_received(self, frame: Frame, info: RxInfo) -> None:
        mine = frame.destination in (self.radio.name, BROADCAST)
        if frame.frame_type is FrameType.ACK and frame.destination == self.radio.name:
            self._handle_ack(frame)
        elif frame.frame_type is FrameType.DATA and frame.destination == self.radio.name:
            self._send_ack(frame)
        elif frame.frame_type is FrameType.CTS:
            self._handle_cts(frame)
        if mine or frame.frame_type is FrameType.DATA:
            for listener in self.frame_listeners:
                listener(frame, info)

    def _handle_ack(self, ack: Frame) -> None:
        pending = self._awaiting_ack_for
        if pending is None or ack.meta.get("acked_seq") != pending.seq:
            return
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self.data_delivered += 1
        self.delivered_payload_bytes += pending.payload_bytes
        delay = self.sim.now - pending.created_at
        self.delays.append(delay)
        self.delay_records.append((delay, pending.priority))
        trace = self.trace
        if trace.note("wifi.delivered"):
            trace.store(self.sim.now, "wifi.delivered", mac=self.radio.name, seq=pending.seq)
        self._finish_transaction()

    def _send_ack(self, data: Frame) -> None:
        ack = wifi_ack_frame(self.radio.name, data.source, self.basic_rate)
        ack.meta["acked_seq"] = data.seq
        self.sim.schedule(SIFS_S, self._forced_tx, ack)

    def _handle_cts(self, cts: Frame) -> None:
        nav = cts.meta.get("nav_duration", 0.0)
        if cts.source == self.radio.name:
            return
        new_nav = self.sim.now + nav
        # Fault stamps (set once at the sender, honored by every *other*
        # station): a dropped CTS never sets this NAV; a delayed one sets it
        # late but still ending at the original time — either way this
        # station may transmit into the granted white space, modeling the
        # hidden-contender failures of imperfect CTS-to-self coverage.
        if cts.meta.get("fault_cts_drop"):
            self.trace.record(
                self.sim.now, "wifi.nav_dropped", mac=self.radio.name,
                source=cts.source,
            )
            self._evaluate()
            return
        delay = cts.meta.get("fault_cts_delay", 0.0)
        if delay > 0.0:
            self.trace.record(
                self.sim.now, "wifi.nav_delayed", mac=self.radio.name,
                source=cts.source, delay=delay,
            )
            self.sim.schedule(delay, self._apply_nav, cts, new_nav)
            self._evaluate()
            return
        self._apply_nav(cts, new_nav)

    def _apply_nav(self, cts: Frame, until: float) -> None:
        if until > self.nav_until and until > self.sim.now:
            self.nav_until = until
            self._schedule_wakeup(until)
            self.trace.record(
                self.sim.now, "wifi.nav_set", mac=self.radio.name,
                source=cts.source, until=until,
            )
            if self.on_nav_set is not None:
                self.on_nav_set(cts, until)
        self._evaluate()

    def _forced_tx(self, frame: Frame) -> None:
        """Transmit without CCA (ACKs are sent after SIFS regardless)."""
        if self.radio.is_transmitting:
            return  # shouldn't happen; drop the ACK rather than crash
        self.radio.transmit_frame(frame, self.tx_power_dbm)

    def on_frame_lost(self, frame: Frame, info: RxInfo) -> None:
        self.trace.record(
            self.sim.now, "wifi.rx_corrupt", mac=self.radio.name,
            frame_type=frame.frame_type.value, source=frame.source,
        )

    def _schedule_wakeup(self, time: float) -> None:
        if self._wakeup_event is not None and self._wakeup_event.pending:
            if self._wakeup_event.time <= time:
                pass  # keep earliest wakeup; a later one will be rescheduled then
            else:
                self._wakeup_event.cancel()
                self._wakeup_event = self.sim.schedule_at(time, self._wakeup)
            return
        self._wakeup_event = self.sim.schedule_at(time, self._wakeup)

    def _wakeup(self) -> None:
        self._wakeup_event = None
        pending = [t for t in (self.nav_until, self.suppressed_until) if t > self.sim.now]
        if pending:
            self._schedule_wakeup(min(pending))
        self._evaluate()
