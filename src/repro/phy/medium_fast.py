"""Struct-of-arrays medium kernel for dense deployments.

The loop kernel, :class:`~repro.phy.medium.Medium`, keeps per-source link
rows and buffered fading too, but walks them in Python: every transmission
start computes each link's rx power as a float and screens every radio for
notification one by one.  At the densities of the scale-ceiling bench
(hundreds of radios) those loops dominate the run time.

This kernel keeps the *same numbers* (bit-identical traces, enforced by
``tests/test_medium_equivalence.py``) while restructuring the hot path around
index-aligned numpy arrays:

* **Link matrix rows** (:class:`_SourceRow`) — path loss and shadowing from
  one source to every attached radio, rebuilt only when the position epoch
  or the source's position object changes.  Per-link fading
  is buffered: each transmission consumes one pre-drawn sample per link (a
  single numpy gather), and empty buffers are refilled in blocks from the
  stream state the channel keeps (``Channel.fading_draws``).
* **Per-band overlap profiles** — ``overlap_fraction`` and its dB form for
  one transmit band against every radio's band, cached per (band, band
  version).  Zero-overlap radios are masked out of all power math.
* **Slots** (:class:`_Slot`) — per-transmission rx-power and captured-power
  arrays indexed by radio position, replacing the ``(tx_id, radio.name)``
  per-frame dicts.  Energy queries (``interference_mw``, ``cca_power_mw``)
  are :class:`Medium`'s own folds over the active set; they read each
  radio's captured power from its slot through
  :meth:`VectorMedium.captured_power_mw`.
* **Reception locks** (:class:`_Locks`) — the interference record a locked
  radio would keep in its ``_ReceptionContext`` (locked frame, open
  segment, closed segments), one row per radio.  Every edge, nested ones
  too, carries all locks across in one elementwise fold over the active
  slots, so a locked radio is called only when its frame ends:
  :meth:`VectorMedium._hand_over` writes the segments into its context and
  the radio finishes the reception (BER, SINR and the success draw stay
  scalar, per segment).  A reception's cross-technology overlaps are not
  tracked per edge: :meth:`Medium.overlaps` works them out on request from
  the active set and the record of ended frames, whose slots are kept
  until :meth:`Medium._finish` forgets them.

Bitwise-exactness notes (all verified empirically): elementwise numpy
add/sub/mul/div/min/max match the equivalent scalar operation sequences;
``10.0 ** x`` does **not** (SIMD), so the mW conversion runs as a scalar loop
over the unmasked radios; a block of B fading values matches B scalar draws
from the same stream; adding the slot columns one at a time in active-set
order (the lock fold) matches each radio's scalar left-fold, but
subtracting a term does not undo adding it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..sim.units import dbm_to_mw, linear_to_db
from .medium import Medium, Technology, Transmission
from .spectrum import overlap_fraction, overlap_profile

#: Fading values per refill of a link buffer.  Smaller than the loop
#: kernel's block: a dense grid keeps one buffer row per link.
_FADING_BATCH = 16

#: Stable small-int code per technology, for the vectorized decode screen.
_TECH_INDEX = {tech: i for i, tech in enumerate(Technology)}


class _SourceRow:
    """Per-source link state: path loss, shadowing, buffered fading.

    :meth:`VectorMedium._source_row` fills ``src_index``, ``epoch``,
    ``src_pos``, ``loss`` and ``shadow`` on every (re)build; the fading
    buffers live as long as the row.
    """

    __slots__ = ("src_index", "epoch", "src_pos", "loss", "shadow", "buf", "head", "count")

    def __init__(self, n: int):
        self.src_index = -1  # -1 when the source is not an attached radio
        self.epoch = -1
        self.src_pos: Any = None
        self.loss = np.zeros(n)
        self.shadow = np.zeros(n)
        # ``buf[j, head[j]:head[j] + count[j]]`` are link j's drawn, unused
        # fading values; an empty buffer is refilled with one block.
        self.buf = np.zeros((n, _FADING_BATCH))
        self.head = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)


class _Slot:
    """Array state of one transmission (replaces the tuple-key dicts).

    ``dec`` is the demodulator-weighted power (captured × bandwidth
    dilution), precomputed so ``decoding_interference_mw`` folds over plain
    array reads.  A slot lives from the frame's start until the medium
    forgets the ended frame (:meth:`VectorMedium._forget`).
    """

    __slots__ = ("src_index", "rx_dbm", "cap", "dec", "tx")

    def __init__(
        self,
        src_index: int,
        rx_dbm: np.ndarray,
        cap: np.ndarray,
        dec: np.ndarray,
        tx: Transmission,
    ):
        self.src_index = src_index
        self.rx_dbm = rx_dbm
        self.cap = cap
        self.dec = dec
        self.tx = tx


def _widen(table: np.ndarray) -> np.ndarray:
    """``table`` with twice the columns, the new ones zero."""
    return np.concatenate((table, np.zeros_like(table)), axis=1)


class _Locks:
    """The reception locks the medium keeps the record of, one row per radio.

    Row ``j`` is the interference record a
    :class:`~repro.devices.base._ReceptionContext` would hold for radio
    ``j``: ``tx`` is the locked frame's id (0: no lock),
    ``seg_start``/``seg_level`` the open segment and ``seg_dur``/``seg_lvl``
    the closed ones (``seg_n`` per row), which widen on demand.  A lock
    keeps segments only; its overlaps come from :meth:`Medium.overlaps`.
    """

    __slots__ = ("tx", "seg_start", "seg_level", "seg_n", "seg_dur", "seg_lvl")

    _WIDTH = 4

    def __init__(self, n: int) -> None:
        self.tx = np.zeros(n, dtype=np.int64)
        self.seg_start = np.zeros(n)
        self.seg_level = np.zeros(n)
        self.seg_n = np.zeros(n, dtype=np.intp)
        self.seg_dur = np.zeros((n, self._WIDTH))
        self.seg_lvl = np.zeros((n, self._WIDTH))

    def close_segments(self, held: np.ndarray, now: float, levels: np.ndarray) -> None:
        """Close the open segment of every radio in ``held``; open ``levels``."""
        closing = held[now > self.seg_start[held]]
        if closing.size:
            col = self.seg_n[closing]
            while col.max() >= self.seg_dur.shape[1]:
                self.seg_dur = _widen(self.seg_dur)
                self.seg_lvl = _widen(self.seg_lvl)
            self.seg_dur[closing, col] = now - self.seg_start[closing]
            self.seg_lvl[closing, col] = self.seg_level[closing]
            self.seg_n[closing] = col + 1
        self.seg_start[held] = now
        self.seg_level[held] = levels


class _Handoff:
    """The lock records of the receivers of one ending frame, as Python lists.

    Row ``i`` belongs to radio ``rows[i]`` (``index`` maps back).
    """

    __slots__ = ("epoch", "rows", "index", "seg_n", "seg_dur", "seg_lvl", "seg_start", "seg_level")

    def __init__(self, medium: "VectorMedium", rows: np.ndarray):
        self.epoch = medium.state_epoch
        self.rows = rows
        self.index = {j: i for i, j in enumerate(rows.tolist())}
        if not self.index:
            return
        locks = medium._locks
        seg_n = locks.seg_n[rows]
        width = int(seg_n.max())
        self.seg_n = seg_n.tolist()
        self.seg_dur = locks.seg_dur[rows, :width].tolist()
        self.seg_lvl = locks.seg_lvl[rows, :width].tolist()
        self.seg_start = locks.seg_start[rows].tolist()
        self.seg_level = locks.seg_level[rows].tolist()


class VectorMedium(Medium):
    """Struct-of-arrays medium hot path, bit-identical to :class:`Medium`.

    :func:`repro.context.build_context` builds it for deployments of at
    least :data:`repro.context.VECTOR_MEDIUM_MIN_RADIOS` radios.  The radio
    set is closed at the first transmission (:meth:`Medium.attach`), so
    every link row, slot and lock row spans every radio.
    """

    keeps_lock_records = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        registry = self.telemetry
        self._vector_links = registry.counter("medium.vector_links")
        self._masked_radios = registry.counter("medium.masked_radios")
        # Link-state rows rebuilt after a position-epoch advance, making
        # topology-churn cost visible (see ``move_many``).  The loop kernel
        # does not count its row rebuilds.
        self._link_rows_rebuilt = registry.counter("medium.link_rows_rebuilt")
        self._band_low = np.zeros(0)
        self._band_high = np.zeros(0)
        self._band_bw = np.zeros(0)
        self._sens = np.zeros(0)
        self._tech_code = np.zeros(0, dtype=np.int64)
        #: Radios whose MAC is a listener (``Medium._listeners``): they are
        #: visited on every transmission edge, where the MAC's flag is read.
        self._sensitive = np.zeros(0, dtype=bool)
        #: Every reception lock: the medium keeps its record and folds them
        #: all across every edge at once.  Sized when the first link row
        #: closes the radio set (:meth:`_source_row`).
        self._locks = _Locks(0)
        #: Bumped whenever any radio's band changes; keys the per-band
        #: overlap profiles.
        self._band_version = 0
        self._profiles: Dict[Tuple[Any, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._slots: Dict[int, _Slot] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, radio: Any) -> None:
        super().attach(radio)
        band = radio.band
        self._band_low = np.append(self._band_low, band.low_mhz)
        self._band_high = np.append(self._band_high, band.high_mhz)
        self._band_bw = np.append(self._band_bw, band.bandwidth_mhz)
        self._sens = np.append(self._sens, radio.sensitivity_dbm)
        self._tech_code = np.append(
            self._tech_code, _TECH_INDEX.get(radio.technology, -1)
        )
        self._sensitive = np.append(self._sensitive, self._listeners[-1] is not None)

    def on_radio_retuned(self, radio: Any) -> None:
        j = self._index_of.get(radio.name)
        if j is None:
            return
        band = radio.band
        self._band_low[j] = band.low_mhz
        self._band_high[j] = band.high_mhz
        self._band_bw[j] = band.bandwidth_mhz
        self._band_version += 1
        # Refresh this radio's captured power in every slot, exactly as the
        # legacy cache recomputes on its band-identity guard.
        for slot in self._slots.values():
            if j == slot.src_index:
                continue
            # slot.tx, not an _active lookup: a slot lingers through its end
            # notifications (matching the legacy dict entries) and after
            # them, and a retune from inside one must still refresh it.
            tx = slot.tx
            fraction = overlap_fraction(tx.band, band)
            if fraction <= 0.0:
                slot.cap[j] = 0.0
            else:
                slot.cap[j] = dbm_to_mw(float(slot.rx_dbm[j]) + linear_to_db(fraction))
            slot.dec[j] = float(slot.cap[j]) * min(
                1.0, tx.band.overlapped_mhz(band) / band.bandwidth_mhz
            )

    def on_radio_mac_changed(self, radio: Any) -> Optional[int]:
        j = super().on_radio_mac_changed(radio)
        if j is not None:
            self._sensitive[j] = self._listeners[j] is not None
        return j

    def on_radio_lock_changed(self, radio: Any, locked: bool) -> None:
        """Keep the record of ``radio``'s new lock.

        The lock is folded across edges here and handed back to the radio
        only when the locked frame ends (:meth:`_hand_over`).
        :meth:`Radio._set_lock <repro.devices.base.Radio._set_lock>` calls it
        on every lock transition, because this kernel
        :attr:`keeps_lock_records`.
        """
        j = self._index_of.get(radio.name)
        if j is None or self.radios[j] is not radio:
            return
        locks = self._locks
        if not locked:
            locks.tx[j] = 0
            return
        lock = radio._lock
        start, level = lock.segment_start
        locks.tx[j] = lock.tx.tx_id
        locks.seg_start[j] = start
        locks.seg_level[j] = level
        locks.seg_n[j] = 0

    # ------------------------------------------------------------------
    # Link rows and band profiles
    # ------------------------------------------------------------------
    def _source_row(self, source: Any) -> _SourceRow:
        name = source.name
        epoch = self.channel.position_epoch
        row = self._link_rows.get(name)
        if row is not None and row.epoch == epoch and row.src_pos is source.position:
            return row
        if row is None:
            # The radio set is closed from here on (``Medium.attach``), so
            # the row's fading buffers and the lock rows keep their size for
            # the whole run.
            if not self._link_rows:
                self._locks = _Locks(len(self.radios))
            row = self._link_rows[name] = _SourceRow(len(self.radios))
        else:
            # A true rebuild (stale epoch/position), not a first build:
            # this is the per-source cost of topology churn that
            # ``Medium.move_many`` batches down to one epoch advance.  The
            # unconsumed buffered fading draws stay where they are.
            self._link_rows_rebuilt.inc()
        # Identity check: an emitter sharing a name with a radio must not
        # cause that radio to be skipped (legacy skips by object identity).
        idx = self._index_of.get(name)
        src_index = idx if idx is not None and self.radios[idx] is source else -1
        row.src_index = src_index
        row.epoch = epoch
        row.src_pos = source.position
        channel = self.channel
        radios = self.radios
        # The row's own index is skipped; an emitter sharing a radio's name
        # (``src_index == -1``) still needs that pair.
        others = [r for j, r in enumerate(radios) if j != src_index]
        shadow = channel.ensure_shadowing(name, [r.name for r in others])
        # Bypass the per-pair ``channel.link_budget`` wrapper: its shadowing
        # probe and tuple packing dominate a full-row build.  ``loss_db`` is the
        # exact scalar function the wrapper calls, and ``ensure_shadowing``
        # returns the same per-pair terms, so the values are bitwise-identical
        # to the legacy path.
        loss_db = channel.path_loss.loss_db
        dist = source.position.distance_to
        loss = [loss_db(dist(r.position)) for r in others]
        if src_index >= 0:
            loss.insert(src_index, 0.0)
            shadow.insert(src_index, 0.0)
        row.loss = np.asarray(loss)
        row.shadow = np.asarray(shadow)
        return row

    def _band_profile(self, band: Any) -> Tuple[np.ndarray, np.ndarray]:
        key = (band, self._band_version)
        profile = self._profiles.get(key)
        if profile is None:
            fraction, dilution = overlap_profile(
                band, self._band_low, self._band_high, self._band_bw
            )
            mask = fraction <= 0.0
            unique, inverse = np.unique(fraction, return_inverse=True)
            # linear_to_db per *unique* fraction, scalar (bitwise parity with
            # the legacy per-pair call); masked entries never read their ltd.
            ltd = np.array(
                [linear_to_db(v) if v > 0.0 else 0.0 for v in unique.tolist()]
            )[inverse]
            profile = (mask, ltd, dilution)
            if len(self._profiles) > 256:
                self._profiles.clear()
            self._profiles[key] = profile
        return profile

    def _draw_fading_vector(self, row: _SourceRow, name: str) -> np.ndarray:
        """One fading sample per link, consumed from the per-link buffers.

        Every empty buffer is refilled with one block per link, in a single
        channel call (a row's first frame seeds and fills all of them).
        """
        js = row.src_index
        need = row.count == 0
        if js >= 0:
            # No link to the source itself; its slot keeps the draws that an
            # emitter of the same name (a row with ``src_index == -1``) left.
            need[js] = False
            kept = row.head[js], row.count[js]
            row.head[js] = 0
        if need.any():
            picked = np.nonzero(need)[0]
            radios = self.radios
            row.buf[picked] = self.channel.fading_draws(
                name, [radios[j].name for j in picked.tolist()], _FADING_BATCH
            )
            row.head[picked] = 0
            row.count[picked] = _FADING_BATCH
        fading = row.buf[np.arange(len(row.head)), row.head]
        row.head += 1
        row.count -= 1
        if js >= 0:
            fading[js] = 0.0
            row.head[js], row.count[js] = kept
        return fading

    # ------------------------------------------------------------------
    # Transmissions
    # ------------------------------------------------------------------
    def transmit(
        self,
        source: Any,
        duration: float,
        power_dbm: float,
        band: Any,
        technology: Technology,
        frame: Any = None,
    ) -> Transmission:
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

        row = self._source_row(source)
        n = len(self.radios)
        js = row.src_index
        sigma = self.channel.fading.fading_sigma_db
        if sigma > 0.0:
            fading = self._draw_fading_vector(row, source.name)
            # mean + fading, in the legacy operation order:
            # ((power - loss) + shadow) + fading.
            rx_dbm = ((power_dbm - row.loss) + row.shadow) + fading
        else:
            # The legacy path still adds the (zero) fading term.
            rx_dbm = ((power_dbm - row.loss) + row.shadow) + 0.0
        mask, ltd, dilution = self._band_profile(band)
        cap = np.zeros(n)
        active_idx = np.nonzero(~mask)[0]
        scaled = (rx_dbm + ltd) / 10.0
        # Scalar pow: numpy's vectorized 10.0**x takes a SIMD path whose
        # low bits differ from the scalar libm pow the legacy kernel uses.
        cap[active_idx] = [10.0 ** v for v in scaled[active_idx].tolist()]
        if js >= 0:
            cap[js] = 0.0
        self._slots[tx.tx_id] = _Slot(js, rx_dbm, cap, cap * dilution, tx)
        links = n - 1 if js >= 0 else n
        self._vector_links.inc(links)
        masked = int(mask.sum())
        if js >= 0 and mask[js]:
            masked -= 1
        self._masked_radios.inc(masked)
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
        # Every lock the medium keeps crosses this edge in one fold.
        self._fold_locks(tx, js)
        # Notification pruning: a start notification only *does* anything for
        # a radio that (a) could lock onto this transmission or (b) has a
        # listener MAC, whose flag is read live as its turn comes.  (a) is
        # screened vectorized with the exact checks Radio.on_transmission_start
        # performs (technology, band equality, rx power vs. sensitivity) —
        # false positives are re-filtered by the radio, false negatives are
        # impossible.  A locked radio (the medium keeps every lock), or one
        # that cannot lock, would only pass the edge to its MAC, so (b)
        # reaches the MAC directly.  Everyone else
        # would run a provably empty no-op, so the legacy behavior is
        # preserved bit-for-bit.  Index order == attach order, matching the
        # legacy iteration order.
        notify = self._sensitive.copy()
        candidates: Any = ()
        if frame is not None:
            candidate = (
                (self._tech_code == _TECH_INDEX[technology])
                & (self._band_low == band.low_mhz)
                & (self._band_high == band.high_mhz)
                & (self._band_bw == band.bandwidth_mhz)
                & (rx_dbm >= self._sens)
            )
            notify |= candidate
            candidates = set(np.flatnonzero(candidate).tolist())
        if js >= 0:
            notify[js] = False
        radios = self.radios
        listeners = self._listeners
        locks = self._locks
        for j in np.flatnonzero(notify).tolist():
            if j in candidates and not locks.tx[j]:
                radios[j].on_transmission_start(tx)
            else:
                mac = listeners[j]
                if mac is not None and getattr(mac, "medium_event_sensitive", True):
                    mac.on_medium_event()
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _notify_end(self, tx: Transmission) -> None:
        src_j = self._slots[tx.tx_id].src_index
        self._fold_locks(tx, src_j, ending=True)
        # End notifications are no-ops except for the receivers of ``tx`` and
        # event-sensitive MACs (there is no lock-acquisition path on an end
        # edge), so the pruned set needs no decode screen.
        handoff = self._handoff(tx, src_j)
        notify = self._sensitive.copy()
        notify[handoff.rows] = True
        if src_j >= 0:
            notify[src_j] = False
        radios = self.radios
        listeners = self._listeners
        locks = self._locks
        tx_id = tx.tx_id
        for j in np.flatnonzero(notify).tolist():
            if j in handoff.index and locks.tx[j] == tx_id:
                if handoff.epoch != self.state_epoch:
                    # An edge nested in this loop moved the records.
                    handoff = self._handoff(tx, src_j)
                self._hand_over(j, radios[j], handoff)
                radios[j].on_transmission_end(tx)
                continue
            mac = listeners[j]
            if mac is not None and getattr(mac, "medium_event_sensitive", True):
                mac.on_medium_event()

    # ------------------------------------------------------------------
    # Reception locks
    # ------------------------------------------------------------------
    def _fold_locks(self, tx: Transmission, src_j: int, ending: bool = False) -> None:
        """Carry every lock the medium keeps across an edge of ``tx``.

        One elementwise fold over the active slots, in active-set order,
        gives each locked radio the level ``decoding_interference_mw`` would
        return with its locked frame excluded: that frame's slot adds an
        exact +0.0 instead.  On an end edge the radios locked on ``tx`` are
        left for :meth:`_hand_over`.
        """
        locks = self._locks
        held = np.flatnonzero(locks.tx)
        if src_j >= 0:
            held = held[held != src_j]
        held_locks = locks.tx[held]
        if ending:
            other = held_locks != tx.tx_id
            held = held[other]
            held_locks = held_locks[other]
        if not held.size:
            return
        levels = np.zeros(held.size)
        slots = self._slots
        for tx_id in self._active:
            dec = slots[tx_id].dec[held]
            dec[held_locks == tx_id] = 0.0
            levels += dec
        locks.close_segments(held, self.sim.now, levels)

    def _handoff(self, tx: Transmission, src_j: int) -> "_Handoff":
        """The records of every lock on the ending ``tx``, read out in one go."""
        locks = self._locks
        rows = np.flatnonzero(locks.tx == tx.tx_id)
        if src_j >= 0:
            rows = rows[rows != src_j]
        return _Handoff(self, rows)

    def _hand_over(self, j: int, radio: Any, handoff: "_Handoff") -> None:
        """Write radio ``j``'s lock record into its reception context.

        The context ends up as the per-radio path leaves it at the locked
        frame's end; the radio then finishes the reception itself.
        """
        i = handoff.index[j]
        context = radio._lock
        n = handoff.seg_n[i]
        if n:
            context.segments = list(zip(handoff.seg_dur[i][:n], handoff.seg_lvl[i][:n]))
        context.segment_start = (handoff.seg_start[i], handoff.seg_level[i])

    def _forget(self, tx: Transmission) -> None:
        del self._slots[tx.tx_id]

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------
    def rx_power_dbm(self, tx: Transmission, radio: Any) -> float:
        return float(self._slots[tx.tx_id].rx_dbm[self._index_of[radio.name]])

    def captured_power_mw(self, tx: Transmission, radio: Any) -> float:
        return float(self._slots[tx.tx_id].cap[self._index_of[radio.name]])

    def decoding_interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
    ) -> float:
        j = self._index_of[radio.name]
        # Fold over the precomputed per-slot demodulator-weighted powers of
        # the *active* set, in insertion order (a slot lingers through its
        # transmission's end notifications and must not contribute there).
        # The radio's own transmissions contribute an exact 0.0 (source
        # column masked), matching the legacy skip; so do zero-capture
        # entries (0.0 × dilution).
        total = 0.0
        slots = self._slots
        if exclude:
            for tx_id in self._active:
                if tx_id not in exclude:
                    total += slots[tx_id].dec[j]
        else:
            for tx_id in self._active:
                total += slots[tx_id].dec[j]
        return float(total)
