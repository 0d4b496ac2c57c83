"""Passive white-space prediction baseline (no CTC at all).

Pre-CTC systems (e.g. Huang et al., ICNP'10) let ZigBee nodes *locally*
model Wi-Fi idle gaps and transmit only when the predicted remaining gap
fits a packet exchange.  This captures the class of approaches the paper
dismisses first (Sec. III-A): purely local channel assessment, no
interaction with the interferer.

The node samples its RSSI register on a fixed poll interval, segments the
readings into busy/idle runs, and keeps the empirical distribution of the
last ``history`` idle-gap lengths.  When the channel has been idle for a
small guard time it transmits if the q-th percentile of observed gaps
exceeds the exchange time of the head-of-line packet — a conservative
"will the gap last?" predictor.  Under saturated Wi-Fi, gaps are almost
always too short, so the node starves exactly as the paper describes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..devices.zigbee_device import ZigbeeDevice
from ..mac.frames import Frame, zigbee_data_frame
from ..sim.process import Process
from ..traffic.generators import Burst


class PredictiveNode:
    """ZigBee sender using local white-space prediction only."""

    def __init__(
        self,
        device: ZigbeeDevice,
        receiver: str,
        poll_interval: float = 0.5e-3,
        history: int = 50,
        percentile: float = 25.0,
        guard_time: float = 1e-3,
        busy_margin_db: float = 10.0,
        inter_packet_gap: float = 2e-3,
    ):
        self.device = device
        self.receiver = receiver
        self.sim = device.ctx.sim
        self.poll_interval = poll_interval
        self.percentile = percentile
        self.guard_time = guard_time
        self.busy_margin_db = busy_margin_db
        self.inter_packet_gap = inter_packet_gap
        self._gaps: Deque[float] = deque(maxlen=history)
        self._idle_since: Optional[float] = None
        self._pending: Deque[Tuple[int, float, int]] = deque()
        self._seq = 0
        self._inflight: Optional[Frame] = None
        self._outstanding_by_burst = {}
        self._burst_created = {}
        mac = device.mac
        mac.on_send_success = self._on_send_success
        mac.on_send_failure = self._on_send_failure
        # Statistics
        self.packet_delays: List[float] = []
        self.packets_delivered = 0
        self.delivered_payload_bytes = 0
        self.bursts_completed = 0
        self.burst_latencies: List[float] = []
        self.send_failures = 0
        self.transmit_opportunities = 0
        self._process = Process(self.sim, self._poll(), name=f"predictive/{device.name}")

    def stop(self) -> None:
        self._process.stop()

    # ------------------------------------------------------------------
    def offer_burst(self, burst: Burst) -> None:
        for _ in range(burst.n_packets):
            self._pending.append((burst.payload_bytes, burst.created_at, burst.burst_id))
        self._outstanding_by_burst[burst.burst_id] = burst.n_packets
        self._burst_created[burst.burst_id] = burst.created_at

    @property
    def outstanding_packets(self) -> int:
        # The in-flight frame is still at the head of the queue (it is only
        # popped on success), so the queue length alone is the right count.
        return len(self._pending)

    # ------------------------------------------------------------------
    def _channel_busy(self) -> bool:
        radio = self.device.radio
        return radio.energy_dbm() >= radio.noise_floor_dbm + self.busy_margin_db

    def _predicted_gap(self) -> float:
        if len(self._gaps) < 5:
            return 0.0
        return float(np.percentile(np.asarray(self._gaps), self.percentile))

    def _exchange_time(self, payload: int) -> float:
        frame = zigbee_data_frame(self.device.name, self.receiver, payload)
        return frame.duration() + 2.5e-3

    def _poll(self):
        meter = self.device.radio.energy_meter
        while True:
            if meter is not None:
                # Each RSSI poll keeps the receiver on for one measurement
                # (8 symbols) — the idle-listening cost of passive channel
                # assessment the paper's energy argument highlights.
                meter.charge_listen(128e-6, label="rssi_poll")
            busy = self._channel_busy() or self.device.radio.is_transmitting
            now = self.sim.now
            if busy:
                if self._idle_since is not None:
                    self._gaps.append(now - self._idle_since)
                self._idle_since = None
            else:
                if self._idle_since is None:
                    self._idle_since = now
                elif (
                    now - self._idle_since >= self.guard_time
                    and self._pending
                    and self._inflight is None
                ):
                    payload = self._pending[0][0]
                    needed = self._exchange_time(payload)
                    idle_run = now - self._idle_since
                    # Transmit if the gap distribution predicts enough time,
                    # or if the current idle run has itself already lasted
                    # longer than one exchange (covers quiet channels where
                    # no gap statistics exist).
                    if self._predicted_gap() >= needed or idle_run >= needed:
                        self.transmit_opportunities += 1
                        self._send_next()
            yield self.poll_interval

    # ------------------------------------------------------------------
    def _send_next(self) -> None:
        if self._inflight is not None or not self._pending:
            return
        payload, created_at, burst_id = self._pending[0]
        self._seq += 1
        frame = zigbee_data_frame(
            self.device.name, self.receiver, payload, created_at=created_at,
            burst_id=burst_id,
        )
        frame.seq = self._seq
        self._inflight = frame
        self.device.mac.send(frame)

    def _on_send_success(self, frame: Frame) -> None:
        if frame is not self._inflight:
            return
        self._inflight = None
        self._pending.popleft()
        self.packet_delays.append(self.sim.now - frame.created_at)
        self.packets_delivered += 1
        self.delivered_payload_bytes += frame.payload_bytes
        burst_id = frame.meta.get("burst_id")
        if burst_id is not None:
            remaining = self._outstanding_by_burst.get(burst_id, 0) - 1
            self._outstanding_by_burst[burst_id] = remaining
            if remaining == 0:
                self.bursts_completed += 1
                self.burst_latencies.append(
                    self.sim.now - self._burst_created.pop(burst_id)
                )
        if self._pending and not self._channel_busy():
            self.sim.schedule(self.inter_packet_gap, self._send_next)

    def _on_send_failure(self, frame: Frame, reason: str) -> None:
        if frame is not self._inflight:
            return
        self._inflight = None
        self.send_failures += 1
        # Back to watching for the next predicted gap.
