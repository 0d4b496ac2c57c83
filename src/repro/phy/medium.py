"""The shared wireless medium.

The medium is the meeting point of every radio in a scenario.  It knows which
transmissions are on the air, computes the power each radio receives from
each transmission (path loss + shadowing + per-frame fading, weighted by
spectral overlap), and notifies the attached radios a transmission start or
end can affect so they can lock onto frames, track interference, and
re-evaluate their clear-channel state.

Two different power questions arise and are answered by two methods:

* :meth:`Medium.rx_power_dbm` — the power of one specific transmission at a
  radio, *before* band filtering.  Receivers combine it with
  :func:`~repro.phy.spectrum.overlap_fraction` to get captured power.
* :meth:`Medium.inband_energy_dbm` — the total power inside a radio's receive
  filter right now (noise floor plus all active transmissions), which is what
  energy-detection CCA measures.

A run's radio set is fixed at its first frame: :meth:`Medium.attach` raises
once any source has transmitted, so every frame's powers cover every radio.
A frame's powers are kept while it is on the air and then for as long as a
reception lock may still have overlapped it (:meth:`Medium.overlaps`).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

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

    # Members are singletons and compare by identity, so they may hash by
    # identity too: a dict probe keyed by a technology (``VectorMedium``'s
    # index) then runs no Python-level ``__hash__``.
    __hash__ = object.__hash__


#: Pre-frozen technology filters for the common energy queries.  Passing one
#: of these (or any ``frozenset``) to :meth:`Medium.interference_mw` /
#: :meth:`Medium.inband_energy_dbm` skips the per-call set build.
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


#: Fading draws taken per refill of a link's buffer.  A block of that many
#: values from ``Channel.fading_draws`` is that many scalar draws from the
#: link's stream.  Each refill also loads and stores the stream's state, a
#: fixed cost the block is large enough to spread thin.
_FADING_BATCH = 64


def _mac_sensitive(radio: Any) -> bool:
    """Whether ``radio``'s MAC is a listener: it may want medium events.

    A MAC whose class declares ``medium_event_sensitive = False`` never
    does; a radio with no MAC has none to pass events to.  Every other MAC
    is a listener, whose flag the kernels read live at each edge.
    """
    mac = radio.mac
    if mac is None:
        return False
    return bool(getattr(type(mac), "medium_event_sensitive", True))


class _Link:
    """One source-to-receiver link of a :class:`_LinkRow`.

    ``loss`` and ``shadow`` are the link budget at the row's epoch.
    ``draws[head:]`` are values already taken from the link's
    ``fading/<src>-><name>`` stream (held by the channel) and not yet used.
    They are used in stream order, so a frame sees exactly the draw a scalar
    call would return.  A link outlives the rows that hold it: its unused
    draws must.
    """

    __slots__ = ("src", "name", "loss", "shadow", "draws", "head")

    def __init__(self, src: str, name: str):
        self.src = src
        self.name = name
        self.loss = 0.0
        self.shadow = 0.0
        self.draws: List[float] = []
        self.head = 0


class _LinkRow:
    """The links from one source to every other attached radio, in attach order.

    Valid while the channel's position epoch and the source's position
    object are the ones it was built for.
    """

    __slots__ = ("epoch", "src_pos", "links")

    def __init__(self, epoch: int, src_pos: Any, links: List[_Link]):
        self.epoch = epoch
        self.src_pos = src_pos
        self.links = links


class Medium:
    """Shared channel connecting all radios of a scenario.

    This class is the medium of small deployments and the bitwise oracle of
    :class:`~repro.phy.medium_fast.VectorMedium`, the struct-of-arrays kernel
    for dense ones.  :func:`repro.context.build_context` picks between the
    two from the radio count; both produce bit-identical traces (see
    ``tests/test_medium_equivalence.py``).

    Its per-frame work is kept to what can change an outcome:

    * the radio set is closed at the first transmission (:meth:`attach`);
    * a per-source :class:`_LinkRow` holds each link's path loss and
      shadowing, rebuilt only when the position epoch or the source's
      position object changes;
    * fading is drawn 64 at a time per link from the stream state the
      channel holds (:class:`_Link`, :meth:`Channel.fading_draws`);
    * a transmission edge is passed only to radios it can affect: those
      holding a reception lock (read from the radio's ``_lock``), those
      whose MAC is ``medium_event_sensitive`` at the edge and, on a start,
      those that could lock onto the frame.  For every other radio the
      notification is a no-op.

    A MAC whose class declares ``medium_event_sensitive = False`` (ZigBee,
    BLE) is never passed an edge it could not act on.  Any other MAC is a
    *listener*: its flag is read live at every edge, so it can drop out
    while it has nothing to re-plan (``WifiMac`` does while idle).  A MAC
    without the flag is a listener that is always sensitive.
    """

    #: Whether the kernel keeps the interference segments of reception locks
    #: itself and so must hear of every lock transition (:meth:`Radio._set_lock
    #: <repro.devices.base.Radio._set_lock>`).  This kernel reads each
    #: radio's ``_lock`` at the edge instead.
    keeps_lock_records = False

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
        # Index of each radio in ``radios`` by name (O(1) lookup and
        # duplicate check); the list is kept for deterministic ordered
        # iteration.
        self._index_of: Dict[str, int] = {}
        # Per radio, in attach order: its MAC when that MAC is a listener
        # (see the class docstring), else None.
        self._listeners: List[Any] = []
        self._active: Dict[int, Transmission] = {}
        self._tx_ids = itertools.count(1)
        #: Bumped on every transmission start/end.  The in-band energy at any
        #: radio is **piecewise-constant between epochs**, which is what the
        #: segment-based RSSI capture and ``WifiMac``'s carrier-sense memo
        #: rely on.
        self.state_epoch = 0
        self._energy_observers: List[Callable[[], None]] = []
        # Link rows per source name, and every link built so far by
        # (source name, receiver name).  Both kernels keep their rows here:
        # the first row closes the radio set (see :meth:`attach`).
        self._link_rows: Dict[str, Any] = {}
        self._links: Dict[Tuple[str, str], _Link] = {}
        # Rx power of each transmission at every other radio, dBm, frozen at
        # transmit time and kept until :meth:`_forget`: tx id -> {radio
        # name: dBm}.
        self._frame_rx: Dict[int, Dict[str, float]] = {}
        # Ended frames that a lock still on the air may have overlapped, in
        # end order: (transmission, end time, state epoch of the end).
        # :meth:`overlaps` reads them.
        self._ended: Deque[Tuple[Transmission, float, int]] = deque()
        # Captured in-filter power of each transmission, filled on first
        # query and kept until :meth:`_forget`: tx id -> {radio name: (band,
        # mW)}.  The value is pure in (rx power, bands); the stored band
        # reference guards against receivers retuning mid-flight (BLE hops
        # reassign ``radio.band``).
        self._frame_cap: Dict[int, Dict[str, Tuple[Any, float]]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, radio: Any) -> None:
        """Register a radio.  The radio's ``medium`` attribute is set.

        Raises RuntimeError once any source has transmitted: a run's radio
        set is fixed at its first frame, so every frame's powers cover every
        radio.
        """
        if self._link_rows:
            raise RuntimeError(
                f"cannot attach {radio.name!r}: the radio set is fixed once a "
                "source has transmitted"
            )
        if radio.name in self._index_of:
            raise ValueError(f"duplicate radio name {radio.name!r}")
        self._index_of[radio.name] = len(self.radios)
        self.radios.append(radio)
        self._listeners.append(radio.mac if _mac_sensitive(radio) else None)
        radio.medium = self

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

        This kernel needs no action: its captured-power cache stores the
        band each value was computed for and recomputes on mismatch.
        :class:`~repro.phy.medium_fast.VectorMedium` overrides it to refresh
        its band arrays.
        """

    def on_radio_mac_changed(self, radio: Any) -> Optional[int]:
        """Hook called when a radio's MAC layer is (re)assigned.

        Both kernels decide here whether the new MAC is a listener
        (:func:`_mac_sensitive`).  Returns the radio's index, or None when
        ``radio`` is not attached here.
        """
        j = self._index_of.get(radio.name)
        if j is None or self.radios[j] is not radio:
            return None
        self._listeners[j] = radio.mac if _mac_sensitive(radio) else None
        return j

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
    def _link_row(self, source: Any) -> _LinkRow:
        """The links from ``source``, rebuilt if the topology changed.

        The same validity rule as ``VectorMedium._source_row``: the position
        epoch and the source's position object.  A rebuild keeps each link's
        unused fading draws.
        """
        name = source.name
        channel = self.channel
        epoch = channel.position_epoch
        row = self._link_rows.get(name)
        if row is not None and row.epoch == epoch and row.src_pos is source.position:
            return row
        src_pos = source.position
        links = []
        for radio in self.radios:
            if radio is source:
                continue
            rx_name = radio.name
            link = self._links.get((name, rx_name))
            if link is None:
                link = self._links[(name, rx_name)] = _Link(name, rx_name)
            link.loss, link.shadow = channel.link_budget(
                name, src_pos, rx_name, radio.position
            )
            links.append(link)
        row = self._link_rows[name] = _LinkRow(epoch, src_pos, links)
        return row

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
        per link per frame) and frozen for the lifetime of the transmission.
        The radios the start can affect are notified, then an end event is
        scheduled.
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
        self._broadcasts.inc()
        links = self._link_row(source).links
        channel = self.channel
        # ((power - loss) + shadow) + fading, where each link's fading is
        # its next buffered draw.
        rx_power = {}
        if channel.fading.fading_sigma_db > 0.0:
            for link in links:
                head = link.head
                draws = link.draws
                if head == len(draws):
                    block = channel.fading_draws(link.src, (link.name,), _FADING_BATCH)
                    draws = link.draws = block[0].tolist()
                    head = 0
                link.head = head + 1
                rx_power[link.name] = ((power_dbm - link.loss) + link.shadow) + draws[head]
        else:
            for link in links:
                rx_power[link.name] = ((power_dbm - link.loss) + link.shadow) + 0.0
        self._frame_rx[tx.tx_id] = rx_power
        self._frame_cap[tx.tx_id] = {}
        self._bump_state()
        trace = self.trace
        if trace.note("medium.tx_start"):
            trace.store(
                self.sim.now,
                "medium.tx_start",
                source=source.name,
                technology=technology.value,
                duration=duration,
                power_dbm=power_dbm,
            )
        # A start notification does something only for a radio that holds a
        # lock, could lock onto this frame (same technology, rx power at or
        # above its sensitivity; the radio re-checks the rest) or has a MAC
        # that wants medium events.  Locks and flags are read live, radio by
        # radio, in attach order, so a radio skipped here would have run a
        # no-op; one that can neither hold nor take a lock would only pass
        # the edge on to its MAC, so the MAC is called directly.
        for radio, mac in zip(self.radios, self._listeners):
            if radio is source:
                continue
            if radio._lock is not None:
                radio.on_transmission_start(tx)
            elif (
                frame is not None
                and radio.technology is technology
                and rx_power[radio.name] >= radio.sensitivity_dbm
            ):
                radio.on_transmission_start(tx)
            elif mac is not None and getattr(mac, "medium_event_sensitive", True):
                mac.on_medium_event()
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _finish(self, tx: Transmission) -> None:
        del self._active[tx.tx_id]
        self._bump_state()
        self._ended.append((tx, self.sim.now, self.state_epoch))
        trace = self.trace
        if trace.note("medium.tx_end"):
            trace.store(self.sim.now, "medium.tx_end", source=tx.source_name)
        self._notify_end(tx)
        # A lock is taken no earlier than its frame starts, so a frame that
        # ended before the oldest frame on the air started overlapped no
        # lock still to end.
        ended = self._ended
        oldest = next(iter(self._active.values())).start if self._active else math.inf
        while ended and ended[0][1] < oldest:
            self._forget(ended.popleft()[0])
        source = tx.source
        if source is not None and hasattr(source, "on_own_transmission_end"):
            source.on_own_transmission_end(tx)

    def _notify_end(self, tx: Transmission) -> None:
        """Pass the end of ``tx`` to the radios and MACs it can affect."""
        # No lock is acquired on an end edge: only lock holders and MACs
        # that want medium events can act on it.
        source = tx.source
        for radio, mac in zip(self.radios, self._listeners):
            if radio is source:
                continue
            if radio._lock is not None:
                radio.on_transmission_end(tx)
            elif mac is not None and getattr(mac, "medium_event_sensitive", True):
                mac.on_medium_event()

    def _forget(self, tx: Transmission) -> None:
        """Drop the powers of ``tx``, which no reader can still ask for."""
        del self._frame_rx[tx.tx_id]
        del self._frame_cap[tx.tx_id]

    def overlaps(
        self, radio: Any, start: float, epoch: int
    ) -> List[Tuple[Technology, str, float, float]]:
        """The cross-technology overlaps of a reception at ``radio`` ending now.

        The lock was taken at time ``start``, state epoch ``epoch``.  The
        frames of another technology, not sent by ``radio``, that ended
        after that epoch (in end order) or are still on the air (in start
        order) overlapped it: the epoch, not the time, decides whether a
        frame ending at the instant of the lock counts.  One entry per
        source: (technology, source name, strongest rx power dBm, overlap
        seconds summed in that order).
        """
        now = self.sim.now
        frames = [(tx, end) for tx, end, ended_epoch in self._ended if ended_epoch > epoch]
        frames.extend((tx, now) for tx in self._active.values())
        technology = radio.technology
        log: Dict[str, list] = {}
        for tx, end in frames:
            if tx.technology is technology or tx.source is radio:
                continue
            rx_dbm = self.rx_power_dbm(tx, radio)
            seconds = end - max(start, tx.start)
            entry = log.get(tx.source_name)
            if entry is None:
                log[tx.source_name] = [tx.technology, rx_dbm, seconds]
            else:
                entry[1] = max(entry[1], rx_dbm)
                entry[2] += seconds
        return [(tech, name, rx_dbm, seconds) for name, (tech, rx_dbm, seconds) in log.items()]

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------
    def rx_power_dbm(self, tx: Transmission, radio: Any) -> float:
        """Unfiltered received power of ``tx`` at ``radio`` (frozen per frame).

        It answers while ``tx`` is on the air and after its end until the
        medium forgets the frame (:meth:`_forget`).
        """
        return self._frame_rx[tx.tx_id][radio.name]

    def captured_power_mw(self, tx: Transmission, radio: Any) -> float:
        """Power of ``tx`` that enters ``radio``'s receive filter, in mW.

        The value is a pure function of the frozen per-frame rx power and
        the two bands, so it is computed once per (transmission, radio) and
        cached until the transmission ends.  The cache entry remembers the
        receive band it was computed for: a radio that retunes mid-flight
        (BLE hopping) transparently recomputes.
        """
        cache = self._frame_cap[tx.tx_id]
        name = radio.name
        band = radio.band
        entry = cache.get(name)
        if entry is not None and entry[0] is band:
            return entry[1]
        fraction = overlap_fraction(tx.band, band)
        if fraction <= 0.0:
            value = 0.0
        else:
            value = dbm_to_mw(self._frame_rx[tx.tx_id][name] + linear_to_db(fraction))
        cache[name] = (band, value)
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
        :data:`ZIGBEE_ONLY`): other iterables are frozen per call.  Both
        kernels answer with this fold; each term is one
        :meth:`captured_power_mw` read, which is cached per (transmission,
        radio).
        """
        if technologies is None:
            wanted = None
        elif type(technologies) is frozenset:
            wanted = technologies
        else:
            wanted = frozenset(technologies)
        total = 0.0
        for tx in self._active.values():
            if tx.source is radio or tx.tx_id in exclude:
                continue
            if wanted is not None and tx.technology not in wanted:
                continue
            total += self.captured_power_mw(tx, radio)
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
        (``WifiMac._medium_busy``), which memoizes its verdict per state
        epoch; both kernels answer with this fold.
        """
        noise_mw = radio.noise_floor_mw
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
        noise_mw = radio.noise_floor_mw
        return mw_to_dbm(noise_mw + self.interference_mw(radio, technologies=technologies))
