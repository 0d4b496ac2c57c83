"""The shared wireless medium.

The medium is the meeting point of every radio in a scenario.  It knows which
transmissions are on the air, computes the power each radio receives from
each transmission (path loss + shadowing + per-frame fading, weighted by
spectral overlap), and notifies attached radios when transmissions start and
end so they can lock onto frames, track interference, and re-evaluate their
clear-channel state.

Two different power questions arise and are answered by two methods:

* :meth:`Medium.rx_power_dbm` — the power of one specific transmission at a
  radio, *before* band filtering.  Receivers combine it with
  :func:`~repro.phy.spectrum.overlap_fraction` to get captured power.
* :meth:`Medium.inband_energy_dbm` — the total power inside a radio's receive
  filter right now (noise floor plus all active transmissions), which is what
  energy-detection CCA measures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from .. import telemetry as _telemetry
from ..sim.engine import Simulator
from ..sim.trace import TraceRecorder
from ..sim.units import dbm_to_mw, linear_to_db, mw_to_dbm
from .propagation import Channel
from .spectrum import Band, overlap_fraction


class Technology(Enum):
    """Radio technology of a transmission: decides decodability and BER model."""

    WIFI = "wifi"
    ZIGBEE = "zigbee"
    BLE = "ble"
    MICROWAVE = "microwave"


#: Pre-frozen technology filters for the common energy queries.  Passing one
#: of these (or any ``frozenset``) to :meth:`Medium.interference_mw` /
#: :meth:`Medium.inband_energy_dbm` skips the per-call set build *and* makes
#: the query cacheable per medium state epoch.
WIFI_ONLY: FrozenSet[Technology] = frozenset((Technology.WIFI,))
ZIGBEE_ONLY: FrozenSet[Technology] = frozenset((Technology.ZIGBEE,))


@dataclass(slots=True)
class Transmission:
    """One frame (or noise burst) on the air."""

    tx_id: int
    source_name: str
    band: Band
    power_dbm: float
    start: float
    duration: float
    technology: Technology
    frame: Any = None
    source: Any = None  # the transmitting Radio, if any

    @property
    def end(self) -> float:
        return self.start + self.duration

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Tx {self.tx_id} {self.technology.value} from {self.source_name} "
            f"[{self.start * 1e3:.3f}..{self.end * 1e3:.3f} ms] {self.power_dbm:.1f} dBm>"
        )


class Medium:
    """Shared channel connecting all radios of a scenario.

    This class keeps straightforward per-radio Python loops; it is the
    medium of small deployments and the bitwise oracle of
    :class:`~repro.phy.medium_fast.VectorMedium`, the struct-of-arrays kernel
    for dense ones.  :func:`repro.context.build_context` picks between the
    two from the radio count; both produce bit-identical traces (see
    ``tests/test_medium_equivalence.py``).
    """

    def __init__(
        self,
        sim: Simulator,
        channel: Channel,
        trace: Optional[TraceRecorder] = None,
        telemetry: Optional[_telemetry.MetricsRegistry] = None,
    ):
        self.sim = sim
        self.channel = channel
        self.trace = trace or TraceRecorder(enabled_kinds=set())
        registry = telemetry if telemetry is not None else _telemetry.NULL
        self.telemetry = registry
        self._broadcasts = registry.counter("medium.broadcasts")
        self.radios: List[Any] = []
        # Name-indexed view of ``radios`` (O(1) lookup and duplicate check);
        # the list is kept for deterministic ordered iteration.
        self._radio_index: Dict[str, Any] = {}
        self._active: Dict[int, Transmission] = {}
        self._tx_ids = itertools.count(1)
        # rx power of each active transmission at each attached radio, dBm.
        self._rx_power: Dict[Tuple[int, str], float] = {}
        # Radio names with per-tx cache entries written, so ``_finish`` pops
        # O(entries written) keys instead of looping over every radio.
        self._tx_touched: Dict[int, set] = {}
        #: Bumped on every transmission start/end.  The in-band energy at any
        #: radio is **piecewise-constant between epochs**, which is what the
        #: segment-based RSSI capture and the per-epoch energy cache rely on.
        self.state_epoch = 0
        self._energy_observers: List[Callable[[], None]] = []
        # Per-technology count of active transmissions (O(1) busy_with).
        self._tech_active: Dict[Technology, int] = {t: 0 for t in Technology}
        # Captured in-filter power of one tx at one radio, keyed by
        # (tx_id, radio name).  The value is pure in (rx power, bands); the
        # stored band reference guards against receivers retuning mid-flight
        # (BLE hops reassign ``radio.band``).
        self._captured_mw: Dict[Tuple[int, str], Tuple[Any, float]] = {}
        # Summed interference per (radio name, technology filter), valid for
        # one state epoch and one receive band: (epoch, band, mw).
        self._interference_cache: Dict[
            Tuple[str, Optional[FrozenSet[Technology]]], Tuple[int, Any, float]
        ] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, radio: Any) -> None:
        """Register a radio.  The radio's ``medium`` attribute is set."""
        if radio.name in self._radio_index:
            raise ValueError(f"duplicate radio name {radio.name!r}")
        self.radios.append(radio)
        self._radio_index[radio.name] = radio
        radio.medium = self

    def radio_by_name(self, name: str) -> Any:
        try:
            return self._radio_index[name]
        except KeyError:
            raise KeyError(name) from None

    def move_many(self, moves: Iterable[Tuple[Any, Any]]) -> None:
        """Relocate several radios with a single gain invalidation.

        Equivalent to calling :meth:`~repro.devices.base.Radio.move_to` on
        each ``(radio, position)`` pair, but the channel's position epoch
        advances **once** for the whole batch instead of once per radio.
        Link-state rebuilds are lazy in every kernel (they happen on the
        next transmission that consults a stale row), so batching a
        trajectory tick's N moves costs one epoch bump and at most one
        rebuild per active source — not N.
        """
        moved = 0
        for radio, position in moves:
            radio.position = position
            moved += 1
        if moved:
            self.channel.invalidate_gains()

    def on_radio_retuned(self, radio: Any) -> None:
        """Hook called by :meth:`Radio.retune` when a radio's band changes.

        The legacy kernel needs no action (its per-(tx, radio) caches store
        the band they were computed for and recompute on mismatch); faster
        kernels override this to refresh their band arrays.
        """

    def on_radio_mac_changed(self, radio: Any) -> None:
        """Hook called when a radio's MAC layer is (re)assigned.

        The legacy kernel notifies every radio on every transmission edge,
        so it never needs to know; the vector kernel re-reads the MAC's
        ``medium_event_sensitive`` flag to decide whether the radio can be
        skipped when its notification would be a no-op.
        """

    def on_radio_lock_changed(self, radio: Any, locked: bool) -> None:
        """Hook called on every reception-lock transition of ``radio``.

        A locked radio must see every transmission edge (interference
        segments, cross-technology overlap log), so kernels that prune
        no-op notifications track the locked set through this hook.
        """

    # ------------------------------------------------------------------
    # State epochs and energy observers
    # ------------------------------------------------------------------
    def add_energy_observer(self, callback: Callable[[], None]) -> None:
        """Register ``callback()`` to run whenever the on-air set changes.

        Observers fire *after* the medium state (active set, cached rx
        powers) reflects the change, so reading any energy query from inside
        the callback sees the new piecewise-constant level.  RSSI samplers
        use this to enumerate the energy-constant segments of a capture
        window without scheduling per-sample events.
        """
        self._energy_observers.append(callback)

    def remove_energy_observer(self, callback: Callable[[], None]) -> None:
        """Unregister a callback added by :meth:`add_energy_observer`."""
        try:
            self._energy_observers.remove(callback)
        except ValueError:
            pass

    def _bump_state(self) -> None:
        self.state_epoch += 1
        if self._energy_observers:
            for callback in tuple(self._energy_observers):
                callback()

    # ------------------------------------------------------------------
    # Transmissions
    # ------------------------------------------------------------------
    def transmit(
        self,
        source: Any,
        duration: float,
        power_dbm: float,
        band: Band,
        technology: Technology,
        frame: Any = None,
    ) -> Transmission:
        """Put a transmission on the air from ``source`` (a Radio or emitter).

        Received powers at every other radio are drawn now (one fading sample
        per link per frame) and cached for the lifetime of the transmission.
        All other radios are notified, then an end event is scheduled.
        """
        if duration <= 0.0:
            raise ValueError(f"duration must be positive, got {duration}")
        tx = Transmission(
            tx_id=next(self._tx_ids),
            source_name=source.name,
            band=band,
            power_dbm=power_dbm,
            start=self.sim.now,
            duration=duration,
            technology=technology,
            frame=frame,
            source=source,
        )
        self._active[tx.tx_id] = tx
        self._tech_active[technology] += 1
        self._broadcasts.inc()
        touched = self._tx_touched[tx.tx_id] = set()
        for radio in self.radios:
            if radio is source:
                continue
            rx_dbm = self.channel.rx_power_dbm(
                power_dbm, source.name, source.position, radio.name, radio.position
            )
            self._rx_power[(tx.tx_id, radio.name)] = rx_dbm
            touched.add(radio.name)
        self._bump_state()
        self.trace.record(
            self.sim.now,
            "medium.tx_start",
            source=source.name,
            technology=technology.value,
            duration=duration,
            power_dbm=power_dbm,
        )
        for radio in self.radios:
            if radio is not source:
                radio.on_transmission_start(tx)
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _finish(self, tx: Transmission) -> None:
        if self._active.pop(tx.tx_id, None) is not None:
            self._tech_active[tx.technology] -= 1
        self._bump_state()
        self.trace.record(self.sim.now, "medium.tx_end", source=tx.source_name)
        for radio in self.radios:
            if radio is not tx.source:
                radio.on_transmission_end(tx)
        # Only the names actually written at transmit/query time are popped —
        # O(entries) instead of O(radios).
        for name in self._tx_touched.pop(tx.tx_id, ()):
            self._rx_power.pop((tx.tx_id, name), None)
            self._captured_mw.pop((tx.tx_id, name), None)
        if tx.source is not None and hasattr(tx.source, "on_own_transmission_end"):
            tx.source.on_own_transmission_end(tx)

    def active_transmissions(self) -> Iterable[Transmission]:
        return self._active.values()

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------
    def rx_power_dbm(self, tx: Transmission, radio: Any) -> float:
        """Unfiltered received power of ``tx`` at ``radio`` (cached per frame)."""
        try:
            return self._rx_power[(tx.tx_id, radio.name)]
        except KeyError:
            # A radio attached mid-transmission (rare; mobility experiments).
            rx_dbm = self.channel.rx_power_dbm(
                tx.power_dbm, tx.source_name, tx.source.position, radio.name, radio.position
            )
            self._rx_power[(tx.tx_id, radio.name)] = rx_dbm
            touched = self._tx_touched.get(tx.tx_id)
            if touched is not None:
                touched.add(radio.name)
            return rx_dbm

    def captured_power_mw(self, tx: Transmission, radio: Any) -> float:
        """Power of ``tx`` that enters ``radio``'s receive filter, in mW.

        The value is a pure function of the frozen per-frame rx power and
        the two bands, so it is computed once per (transmission, radio) and
        cached until the transmission ends.  The cache entry remembers the
        receive band it was computed for: a radio that retunes mid-flight
        (BLE hopping) transparently recomputes.
        """
        key = (tx.tx_id, radio.name)
        entry = self._captured_mw.get(key)
        if entry is not None and entry[0] is radio.band:
            return entry[1]
        fraction = overlap_fraction(tx.band, radio.band)
        if fraction <= 0.0:
            value = 0.0
        else:
            value = dbm_to_mw(self.rx_power_dbm(tx, radio) + linear_to_db(fraction))
        if tx.tx_id in self._active:
            self._captured_mw[key] = (radio.band, value)
            touched = self._tx_touched.get(tx.tx_id)
            if touched is not None:
                touched.add(radio.name)
        return value

    def interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
        technologies: Optional[Iterable[Technology]] = None,
    ) -> float:
        """Sum of captured powers of active transmissions at ``radio``, mW.

        The radio's own transmission is always excluded; ``exclude`` lists
        additional transmission ids (typically the frame being received).

        ``technologies`` is ideally a ``frozenset`` (see :data:`WIFI_ONLY` /
        :data:`ZIGBEE_ONLY`): other iterables are frozen per call.  Queries
        without ``exclude`` are memoized per medium state epoch — repeated
        CCA checks between transmission boundaries cost one dict probe.
        """
        if technologies is None:
            wanted = None
        elif type(technologies) is frozenset:
            wanted = technologies
        else:
            wanted = frozenset(technologies)
        if not exclude:
            cache_key = (radio.name, wanted)
            cached = self._interference_cache.get(cache_key)
            if (
                cached is not None
                and cached[0] == self.state_epoch
                and cached[1] is radio.band
            ):
                return cached[2]
        total = 0.0
        for tx in self._active.values():
            if tx.source is radio or tx.tx_id in exclude:
                continue
            if wanted is not None and tx.technology not in wanted:
                continue
            total += self.captured_power_mw(tx, radio)
        if not exclude:
            self._interference_cache[cache_key] = (self.state_epoch, radio.band, total)
        return total

    def decoding_interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
    ) -> float:
        """Interference power *as seen by the demodulator*, in mW.

        A narrowband interferer inside a wideband receiver corrupts only the
        spectrum it overlaps (a few OFDM subcarriers, a slice of the DSSS
        spread), so its effect on decoding is its captured power diluted by
        ``overlap / receiver_bandwidth``.  A 2 MHz ZigBee signal inside a
        20 MHz Wi-Fi receiver is 10 dB less harmful than a co-channel Wi-Fi
        signal of the same received power — which is why ZigBee control
        packets degrade Wi-Fi PRR by only a few percent (Sec. V) instead of
        destroying every overlapped frame.  Energy-detection CCA, in
        contrast, measures raw in-band power (:meth:`interference_mw`).
        """
        total = 0.0
        for tx in self._active.values():
            if tx.source is radio or tx.tx_id in exclude:
                continue
            captured = self.captured_power_mw(tx, radio)
            if captured <= 0.0:
                continue
            dilution = min(
                1.0, tx.band.overlapped_mhz(radio.band) / radio.band.bandwidth_mhz
            )
            total += captured * dilution
        return total

    def cca_power_mw(
        self,
        radio: Any,
        now: float,
        min_age: float = 0.0,
    ) -> Tuple[float, float]:
        """Carrier-sense power buckets at ``radio``: ``(wifi_mw, other_mw)``.

        Both buckets are seeded with the radio's noise floor and accumulate
        the captured power of every active transmission at least ``min_age``
        old (excluding the radio's own), split by whether the transmitter is
        Wi-Fi.  This is the fold behind Wi-Fi preamble/energy detection
        (``WifiMac._medium_busy``); it lives on the medium so faster kernels
        can serve it from their accumulators.
        """
        noise_mw = dbm_to_mw(radio.noise_floor_dbm)
        wifi_mw = noise_mw
        other_mw = noise_mw
        for tx in self._active.values():
            if tx.source is radio:
                continue
            if now - tx.start < min_age:
                continue
            captured = self.captured_power_mw(tx, radio)
            if tx.technology is Technology.WIFI:
                wifi_mw += captured
            else:
                other_mw += captured
        return wifi_mw, other_mw

    def inband_energy_dbm(
        self,
        radio: Any,
        technologies: Optional[Iterable[Technology]] = None,
    ) -> float:
        """Total in-band power at ``radio``: noise floor + interference, dBm."""
        noise_mw = dbm_to_mw(radio.noise_floor_dbm)
        return mw_to_dbm(noise_mw + self.interference_mw(radio, technologies=technologies))

    def busy_with(self, technology: Technology) -> bool:
        """True if any transmission of ``technology`` is currently on the air.

        O(1): the medium keeps a per-technology count of active
        transmissions instead of scanning the active set.
        """
        return self._tech_active[technology] > 0
