"""Struct-of-arrays medium kernel for dense deployments.

The loop kernel, :class:`~repro.phy.medium.Medium`, keeps per-source link
rows and buffered fading too, but walks them in Python: every transmission
start computes each link's rx power as a float and screens every radio for
notification one by one, and every interference query folds the active set
per radio.  At the densities of the scale-ceiling bench (hundreds of radios)
those loops dominate the run time.

This kernel keeps the *same numbers* (bit-identical traces, enforced by
``tests/test_medium_equivalence.py``) while restructuring the hot path around
index-aligned numpy arrays:

* **Link matrix rows** (:class:`_SourceRow`) — path loss and shadowing from
  one source to every attached radio, rebuilt only when the position epoch,
  the radio count, or the source's position object changes.  Per-link fading
  generators are batch-seeded and buffered: each transmission consumes one
  pre-drawn sample per link (a single numpy gather) instead of N generator
  calls.
* **Per-band overlap profiles** — ``overlap_fraction`` and its dB form for
  one transmit band against every radio's band, cached per (band, band
  version).  Zero-overlap radios are masked out of all power math.
* **Slots** (:class:`_Slot`) — per-transmission rx-power and captured-power
  arrays indexed by radio position, replacing the ``(tx_id, radio.name)``
  tuple-key dicts.
* **Interference accumulators** (:class:`_Accum`) — per-radio running sums
  per technology filter, updated with one vectorized add at transmission
  start.  Removals re-fold lazily (float addition is not invertible
  bitwise), which is the *drift re-sum policy*: a transmission end marks the
  accumulator dirty and the next query rebuilds it from the surviving slots
  in active-set order, reproducing the legacy left-fold exactly.  Re-sums
  are counted by the ``medium.accumulator_resyncs`` telemetry counter.
* **Reception locks** (:class:`_Locks`) — the record a locked radio would
  keep in its ``_ReceptionContext`` (locked frame, open interference
  segment, closed segments, closed cross-technology overlaps), one row per
  radio.  Every edge carries all locks across in one elementwise fold over
  the active slots, so a locked radio is called only when its frame ends:
  :meth:`VectorMedium._hand_over` writes the record into its context and the
  radio finishes the reception (BER, SINR and the success draw stay scalar,
  per segment).  A radio attached mid-transmission locks on the per-radio
  path instead and sees every edge.  An edge nested in a notification loop
  is folded too; the overlaps it reorders relative to the loop kernel are
  recorded per slot (``_Slot.late``).

Bitwise-exactness notes (all verified empirically): elementwise numpy
add/sub/mul/div/min/max match the equivalent scalar operation sequences;
``10.0 ** x`` does **not** (SIMD), so the mW conversion runs as a scalar loop
over the unmasked radios; batched ``Generator.normal(size=B)`` matches B
scalar draws from the same stream; appending a new term to a running sum
matches re-folding with the term last, but removing one does not.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from ..sim.units import dbm_to_mw, linear_to_db
from .medium import _FADING_BATCH, Medium, Technology, Transmission, _mac_sensitive
from .spectrum import overlap_fraction, overlap_profile

#: Stable small-int code per technology, for the vectorized decode screen.
_TECH_INDEX = {tech: i for i, tech in enumerate(Technology)}


class _SourceRow:
    """Per-source link state: path loss, shadowing, buffered fading."""

    __slots__ = (
        "n",
        "src_index",
        "epoch",
        "src_pos",
        "loss",
        "shadow",
        "gens",
        "buf",
        "head",
        "count",
        "warm",
    )

    def __init__(self, n: int, src_index: int, epoch: int, src_pos: Any):
        self.n = n
        self.src_index = src_index  # -1 when the source is not an attached radio
        self.epoch = epoch
        self.src_pos = src_pos
        self.loss = np.zeros(n)
        self.shadow = np.zeros(n)
        self.gens: List[Any] = [None] * n
        self.buf = np.zeros((n, _FADING_BATCH))
        self.head = np.zeros(n, dtype=np.intp)
        self.count = np.zeros(n, dtype=np.intp)
        # The first transmission of a row draws scalars (cheap for one-shot
        # sources); buffers engage from the second transmission on.
        self.warm = False


class _Slot:
    """Array state of one active transmission (replaces the tuple-key dicts).

    ``dec`` is the demodulator-weighted power (captured × bandwidth
    dilution), precomputed so ``decoding_interference_mw`` folds over plain
    array reads.  ``late`` maps a locked radio to ``(lock tx id, key)`` when
    the loop kernel would have opened this transmission's overlap after
    frames started later (see ``VectorMedium._open_late``).
    """

    __slots__ = ("n", "src_index", "rx_dbm", "cap", "dec", "tx", "late")

    def __init__(
        self,
        n: int,
        src_index: int,
        rx_dbm: np.ndarray,
        cap: np.ndarray,
        dec: np.ndarray,
        tx: Transmission,
    ):
        self.n = n
        self.src_index = src_index
        self.rx_dbm = rx_dbm
        self.cap = cap
        self.dec = dec
        self.tx = tx
        self.late: Optional[Dict[int, Tuple[int, float]]] = None


class _Accum:
    """A per-radio running interference sum for one technology filter.

    ``kind`` selects which transmissions contribute: ``"all"`` (no filter),
    ``"set"`` (technology in ``techs``), ``"wifi"`` / ``"other"`` (the two
    noise-seeded carrier-sense buckets).  ``seed`` is the per-radio base
    value each re-fold starts from (zero, or the noise floor for CCA).
    """

    __slots__ = ("kind", "techs", "seed", "totals", "dirty_all", "dirty")

    def __init__(self, kind: str, techs: Optional[FrozenSet[Technology]], n: int):
        self.kind = kind
        self.techs = techs
        self.seed: Optional[np.ndarray] = None  # None means zeros
        self.totals = np.zeros(n)
        self.dirty_all = True
        self.dirty: set = set()

    def matches(self, technology: Technology) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "set":
            return technology in self.techs
        if self.kind == "wifi":
            return technology is Technology.WIFI
        return technology is not Technology.WIFI


def _widen(table: np.ndarray) -> np.ndarray:
    """``table`` with twice the columns, the new ones zero."""
    return np.concatenate((table, np.zeros_like(table)), axis=1)


class _Locks:
    """The reception locks the medium keeps the record of, one row per radio.

    Row ``j`` is the state a :class:`~repro.devices.base._ReceptionContext`
    would hold for radio ``j``: ``tx`` is the locked frame's id (0: no
    lock), ``start`` the lock time, ``seg_start``/``seg_level`` the open
    interference segment and ``seg_dur``/``seg_lvl`` the closed ones
    (``seg_n`` per row).  ``ov_*`` log the cross-technology overlaps closed
    during the lock, in end order: source id, rx power and seconds overlapped
    (``ov_n`` per row).  The overlaps still open are the active
    cross-technology transmissions, so they need no state of their own.
    The two logs widen on demand.
    """

    __slots__ = (
        "tx", "start", "seg_start", "seg_level", "seg_n", "seg_dur", "seg_lvl",
        "ov_n", "ov_src", "ov_rx", "ov_dur",
    )

    _WIDTH = 4

    def __init__(self) -> None:
        self.tx = np.zeros(0, dtype=np.int64)
        self.start = np.zeros(0)
        self.seg_start = np.zeros(0)
        self.seg_level = np.zeros(0)
        self.seg_n = np.zeros(0, dtype=np.intp)
        self.seg_dur = np.zeros((0, self._WIDTH))
        self.seg_lvl = np.zeros((0, self._WIDTH))
        self.ov_n = np.zeros(0, dtype=np.intp)
        self.ov_src = np.zeros((0, self._WIDTH), dtype=np.intp)
        self.ov_rx = np.zeros((0, self._WIDTH))
        self.ov_dur = np.zeros((0, self._WIDTH))

    def fit(self, n: int) -> None:
        """Make room for ``n`` rows; new rows hold no lock."""
        have = len(self.tx)
        if have < n:
            for name in self.__slots__:
                table = getattr(self, name)
                rows = np.zeros((n - have,) + table.shape[1:], dtype=table.dtype)
                setattr(self, name, np.concatenate((table, rows)))

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

    def close_overlaps(
        self, rows: np.ndarray, source: int, rx_dbm: np.ndarray, tx_start: float, now: float
    ) -> None:
        """Log, for every radio in ``rows``, an overlap with a frame ending ``now``."""
        col = self.ov_n[rows]
        while col.max() >= self.ov_src.shape[1]:
            self.ov_src = _widen(self.ov_src)
            self.ov_rx = _widen(self.ov_rx)
            self.ov_dur = _widen(self.ov_dur)
        self.ov_src[rows, col] = source
        self.ov_rx[rows, col] = rx_dbm
        # An overlap opens when the later of the lock and the frame begins.
        self.ov_dur[rows, col] = now - np.maximum(self.start[rows], tx_start)
        self.ov_n[rows] = col + 1


class _Handoff:
    """The lock records of the receivers of one ending frame, as Python lists.

    Row ``i`` belongs to radio ``rows[i]`` (``index`` maps back).  The
    overlaps still open are the active transmissions of another technology
    than the frame's, which every receiver shares; ``opened`` lists them in
    active-set order with their slot and per-receiver rx powers.
    """

    __slots__ = (
        "tx_id", "epoch", "rows", "index", "seg_n", "seg_dur", "seg_lvl", "seg_start",
        "seg_level", "ov_n", "ov_src", "ov_rx", "ov_dur", "lock_start", "opened",
    )

    def __init__(self, medium: "VectorMedium", tx: Transmission, rows: np.ndarray):
        self.tx_id = tx.tx_id
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
        ov_n = locks.ov_n[rows]
        width = int(ov_n.max())
        self.ov_n = ov_n.tolist()
        self.ov_src = locks.ov_src[rows, :width].tolist()
        self.ov_rx = locks.ov_rx[rows, :width].tolist()
        self.ov_dur = locks.ov_dur[rows, :width].tolist()
        self.lock_start = locks.start[rows].tolist()
        slots = medium._slots
        self.opened = [
            (tx_id, other, slots[tx_id], slots[tx_id].rx_dbm[rows].tolist())
            for tx_id, other in medium._active.items()
            if other.technology is not tx.technology
        ]


class VectorMedium(Medium):
    """Struct-of-arrays medium hot path, bit-identical to :class:`Medium`.

    :func:`repro.context.build_context` builds it for deployments of at
    least :data:`repro.context.VECTOR_MEDIUM_MIN_RADIOS` radios.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        registry = self.telemetry
        self._vector_links = registry.counter("medium.vector_links")
        self._masked_radios = registry.counter("medium.masked_radios")
        self._accumulator_resyncs = registry.counter("medium.accumulator_resyncs")
        # Link-state rows rebuilt after a position-epoch advance, making
        # topology-churn cost visible (see ``move_many``).  The loop kernel
        # does not count its row rebuilds.
        self._link_rows_rebuilt = registry.counter("medium.link_rows_rebuilt")
        self._index_of: Dict[str, int] = {}
        self._noise_mw = np.zeros(0)
        self._band_low = np.zeros(0)
        self._band_high = np.zeros(0)
        self._band_bw = np.zeros(0)
        self._sens = np.zeros(0)
        self._tech_code = np.zeros(0, dtype=np.int64)
        #: Radios whose MAC re-plans on medium events (or has no known flag);
        #: they are notified on every transmission edge.  ``_listeners``
        #: holds each such radio's MAC (None for the others).
        self._sensitive = np.zeros(0, dtype=bool)
        self._listeners: List[Any] = []
        #: Reception locks of covered radios (index < ``_cover_n`` when the
        #: lock was taken): the medium keeps their record and folds them
        #: across every edge at once.
        self._locks = _Locks()
        #: Indices of radios holding a lock taken while uncovered: they keep
        #: the per-radio path and see every transmission edge.
        self._untracked: set = set()
        #: (source name, technology) of each transmission source, by the id
        #: the overlap log stores.
        self._source_ids: Dict[Tuple[str, Technology], int] = {}
        self._source_keys: List[Tuple[str, Technology]] = []
        #: Bumped whenever any radio's band changes or a radio attaches;
        #: keys the per-band overlap profiles.
        self._band_version = 0
        self._rows: Dict[str, _SourceRow] = {}
        self._profiles: Dict[Tuple[Any, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._slots: Dict[int, _Slot] = {}
        #: Radios with index >= _cover_n are not covered by every active
        #: slot (attached mid-transmission); their queries take the exact
        #: legacy fallback path.
        self._cover_n = 0
        self._accs: Dict[Any, _Accum] = {}
        self._cca_wifi: Optional[_Accum] = None
        self._cca_other: Optional[_Accum] = None

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, radio: Any) -> None:
        super().attach(radio)
        self._index_of[radio.name] = len(self.radios) - 1
        self._noise_mw = np.append(self._noise_mw, dbm_to_mw(radio.noise_floor_dbm))
        band = radio.band
        self._band_low = np.append(self._band_low, band.low_mhz)
        self._band_high = np.append(self._band_high, band.high_mhz)
        self._band_bw = np.append(self._band_bw, band.bandwidth_mhz)
        self._sens = np.append(self._sens, radio.sensitivity_dbm)
        self._tech_code = np.append(
            self._tech_code, _TECH_INDEX.get(radio.technology, -1)
        )
        self._sensitive = np.append(self._sensitive, _mac_sensitive(radio))
        self._listeners.append(radio.mac if self._sensitive[-1] else None)
        self._band_version += 1
        for acc in self._all_accs():
            acc.totals = np.append(acc.totals, 0.0)
            if acc.seed is not None:
                acc.seed = self._noise_mw
        if not self._slots:
            self._cover_n = len(self.radios)

    def on_radio_retuned(self, radio: Any) -> None:
        j = self._index_of.get(radio.name)
        if j is None:
            return
        band = radio.band
        self._band_low[j] = band.low_mhz
        self._band_high[j] = band.high_mhz
        self._band_bw[j] = band.bandwidth_mhz
        self._band_version += 1
        # Refresh this radio's captured power in every active slot, exactly
        # as the legacy cache recomputes on its band-identity guard.
        for slot in self._slots.values():
            if j >= slot.n or j == slot.src_index:
                continue
            # slot.tx, not an _active lookup: a slot lingers through its end
            # notifications (matching the legacy dict entries), and a retune
            # from inside one must still refresh it.
            tx = slot.tx
            fraction = overlap_fraction(tx.band, band)
            if fraction <= 0.0:
                slot.cap[j] = 0.0
            else:
                slot.cap[j] = dbm_to_mw(float(slot.rx_dbm[j]) + linear_to_db(fraction))
            slot.dec[j] = float(slot.cap[j]) * min(
                1.0, tx.band.overlapped_mhz(band) / band.bandwidth_mhz
            )
        for acc in self._all_accs():
            acc.dirty.add(j)

    def on_radio_mac_changed(self, radio: Any) -> None:
        j = self._index_of.get(radio.name)
        if j is not None and self.radios[j] is radio:
            self._sensitive[j] = _mac_sensitive(radio)
            self._listeners[j] = radio.mac if self._sensitive[j] else None

    def on_radio_lock_changed(self, radio: Any, locked: bool) -> bool:
        """Keep the record of a new lock when ``radio`` is covered by every slot.

        A covered radio stays covered (later slots span it too), so its lock
        is folded across edges here and handed back to the radio only when
        the locked frame ends (:meth:`_hand_over`).  Returns True for such a
        lock; the loop kernel's hook returns None.
        """
        j = self._index_of.get(radio.name)
        if j is None or self.radios[j] is not radio:
            return False
        locks = self._locks
        locks.fit(j + 1)
        if not locked or j >= self._cover_n:
            locks.tx[j] = 0
            self._untracked.discard(j)
            if locked:
                self._untracked.add(j)
            return False
        lock = radio._lock
        start, level = lock.segment_start
        locks.tx[j] = lock.tx.tx_id
        locks.start[j] = start
        locks.seg_start[j] = start
        locks.seg_level[j] = level
        locks.seg_n[j] = 0
        locks.ov_n[j] = 0
        return True

    def _all_accs(self) -> Iterable[_Accum]:
        yield from self._accs.values()
        if self._cca_wifi is not None:
            yield self._cca_wifi
        if self._cca_other is not None:
            yield self._cca_other

    # ------------------------------------------------------------------
    # Link rows and band profiles
    # ------------------------------------------------------------------
    def _source_row(self, source: Any) -> _SourceRow:
        name = source.name
        n = len(self.radios)
        epoch = self.channel.position_epoch
        row = self._rows.get(name)
        if (
            row is not None
            and row.n == n
            and row.epoch == epoch
            and row.src_pos is source.position
        ):
            return row
        if row is not None:
            # A true rebuild (stale epoch/position/size), not a first build:
            # this is the per-source cost of topology churn that
            # ``Medium.move_many`` batches down to one epoch advance.
            self._link_rows_rebuilt.inc()
        # Identity check: an emitter sharing a name with a radio must not
        # cause that radio to be skipped (legacy skips by object identity).
        idx = self._index_of.get(name)
        src_index = idx if idx is not None and self.radios[idx] is source else -1
        new = _SourceRow(n, src_index, epoch, source.position)
        channel = self.channel
        radios = self.radios
        channel.ensure_shadowing(name, [r.name for r in radios])
        # Bypass the per-pair ``channel.link_budget`` wrapper: its cache probe
        # and tuple packing dominate a full-row build.  ``loss_db`` is the
        # exact scalar function the wrapper calls, and the shadowing terms
        # were just prefetched by ``ensure_shadowing`` from the same per-pair
        # streams, so the values are bitwise-identical to the legacy path.
        loss_db = channel.path_loss.loss_db
        dist = source.position.distance_to
        if channel.fading.shadowing_sigma_db > 0.0:
            shadow_cache = channel._shadowing_cache
            loss_list = [0.0] * n
            shadow_list = [0.0] * n
            for j, radio in enumerate(radios):
                if j == src_index:
                    continue
                rx_name = radio.name
                loss_list[j] = loss_db(dist(radio.position))
                key = (name, rx_name) if name <= rx_name else (rx_name, name)
                shadow_list[j] = shadow_cache[key]
            new.loss = np.asarray(loss_list)
            new.shadow = np.asarray(shadow_list)
        else:
            loss_list = [0.0] * n
            for j, radio in enumerate(radios):
                if j != src_index:
                    loss_list[j] = loss_db(dist(radio.position))
            new.loss = np.asarray(loss_list)
        if channel.fading.fading_sigma_db > 0.0:
            rx_names = [r.name for j, r in enumerate(self.radios) if j != src_index]
            gens = channel.ensure_fading_generators(name, rx_names)
            it = iter(gens)
            for j in range(n):
                if j != src_index:
                    new.gens[j] = next(it)
        if row is not None:
            # Unconsumed buffered fading samples are already drawn from the
            # per-link streams; they must survive a rebuild (radio indices
            # are append-only, so the old arrays map onto the new prefix).
            old_n = row.n
            new.buf[:old_n] = row.buf
            new.head[:old_n] = row.head
            new.count[:old_n] = row.count
            new.warm = row.warm
        self._rows[name] = new
        return new

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

    def _draw_fading_vector(self, row: _SourceRow, sigma: float) -> np.ndarray:
        """One fading sample per link, consumed from the per-link buffers."""
        n = row.n
        if not row.warm:
            row.warm = True
            fading = np.zeros(n)
            for j in range(n):
                if j != row.src_index:
                    fading[j] = row.gens[j].normal(0.0, sigma)
            return fading
        need = row.count == 0
        if row.src_index >= 0:
            need[row.src_index] = False
        if need.any():
            buf = row.buf
            head = row.head
            count = row.count
            gens = row.gens
            for j in np.nonzero(need)[0]:
                buf[j] = gens[j].normal(0.0, sigma, _FADING_BATCH)
                head[j] = 0
                count[j] = _FADING_BATCH
        fading = row.buf[np.arange(n), row.head]
        row.head += 1
        row.count -= 1
        if row.src_index >= 0:
            js = row.src_index
            fading[js] = 0.0
            row.head[js] = 0
            row.count[js] = 0
        return fading

    def _draw_fading_scalar(self, src_name: str, rx_name: str) -> float:
        """Query-time fading draw for one link, buffer-aware.

        Radios attached mid-transmission query rx power lazily; the draw must
        come from the same position in the per-link stream the legacy kernel
        would use, so a buffered sample (if any) is consumed first.
        """
        sigma = self.channel.fading.fading_sigma_db
        if sigma <= 0.0:
            return 0.0
        row = self._rows.get(src_name)
        if row is not None:
            j = self._index_of.get(rx_name)
            if j is not None and j < row.n and j != row.src_index and row.count[j] > 0:
                value = float(row.buf[j, row.head[j]])
                row.head[j] += 1
                row.count[j] -= 1
                return value
        return self.channel.frame_fading_db(src_name, rx_name)

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
        self._tech_active[technology] += 1
        self._broadcasts.inc()
        self._tx_touched[tx.tx_id] = set()

        row = self._source_row(source)
        n = row.n
        js = row.src_index
        sigma = self.channel.fading.fading_sigma_db
        if sigma > 0.0:
            fading = self._draw_fading_vector(row, sigma)
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
        slot = _Slot(n, js, rx_dbm, cap, cap * dilution, tx)
        self._slots[tx.tx_id] = slot
        if n < self._cover_n:
            self._cover_n = n
        links = n - 1 if js >= 0 else n
        self._vector_links.inc(links)
        masked = int(mask.sum())
        if js >= 0 and mask[js]:
            masked -= 1
        self._masked_radios.inc(masked)

        # Appending a term to a running float sum is exact; every clean
        # accumulator picks the new transmission up in O(radios).
        for acc in self._all_accs():
            if not acc.dirty_all and acc.matches(technology):
                acc.totals += cap

        self._bump_state()
        self.trace.record(
            self.sim.now,
            "medium.tx_start",
            source=source.name,
            technology=technology.value,
            duration=duration,
            power_dbm=power_dbm,
        )
        # Every lock the medium keeps crosses this edge in one fold.
        self._locks.fit(len(self.radios))
        held, held_locks = self._fold_locks(tx, js)
        # Notification pruning: a start notification only *does* anything for
        # a radio that (a) could lock onto this transmission, (b) holds a lock
        # the medium does not keep, or (c) has an event-sensitive MAC.  (a) is
        # screened vectorized with the exact checks Radio.on_transmission_start
        # performs (technology, band equality, rx power vs. sensitivity) —
        # false positives are re-filtered by the radio, false negatives are
        # impossible.  A radio whose lock the medium keeps, or that cannot
        # lock, would only pass the edge to its MAC, so (c) reaches the MAC
        # directly.  Everyone else would run a provably empty no-op, so the
        # legacy behavior is preserved bit-for-bit.  Index order == attach
        # order, matching the legacy iteration order.
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
        untracked = self._untracked
        for j in untracked:
            notify[j] = True
        if js >= 0:
            notify[js] = False
        radios = self.radios
        listeners = self._listeners
        locks = self._locks
        epoch = self.state_epoch
        for j in np.flatnonzero(notify).tolist():
            if j in untracked or (j in candidates and not locks.tx[j]):
                radios[j].on_transmission_start(tx)
            else:
                mac = listeners[j]
                if mac is not None:
                    mac.on_medium_event()
            if self.state_epoch != epoch:
                self._open_late(tx, held, held_locks, j)
                epoch = self.state_epoch
        self.sim.schedule(duration, self._finish, tx)
        return tx

    def _finish(self, tx: Transmission) -> None:
        if self._active.pop(tx.tx_id, None) is not None:
            self._tech_active[tx.technology] -= 1
            if tx.tx_id in self._slots:
                # Float subtraction would not reproduce the legacy left-fold;
                # mark every matching accumulator for a lazy exact re-sum.
                for acc in self._all_accs():
                    if acc.matches(tx.technology):
                        acc.dirty_all = True
                self._cover_n = min(
                    (
                        self._slots[tx_id].n
                        for tx_id in self._active
                        if tx_id in self._slots
                    ),
                    default=len(self.radios),
                )
        self._bump_state()
        self.trace.record(self.sim.now, "medium.tx_end", source=tx.source_name)
        src_j = self._index_of.get(tx.source_name, -1)
        if src_j >= 0 and self.radios[src_j] is not tx.source:
            src_j = -1
        self._fold_locks(tx, src_j, ending=True)
        # End notifications are no-ops except for the receivers of ``tx``,
        # locks the medium does not keep and event-sensitive MACs (there is
        # no lock-acquisition path on an end edge), so the pruned set needs
        # no decode screen.
        handoff = self._handoff(tx, src_j)
        notify = self._sensitive.copy()
        notify[handoff.rows] = True
        untracked = self._untracked
        for j in untracked:
            notify[j] = True
        if src_j >= 0:
            notify[src_j] = False
        radios = self.radios
        listeners = self._listeners
        locks = self._locks
        tx_id = tx.tx_id
        for j in np.flatnonzero(notify).tolist():
            if j in untracked:
                radios[j].on_transmission_end(tx)
                continue
            if j in handoff.index and locks.tx[j] == tx_id:
                if handoff.epoch != self.state_epoch:
                    # An edge nested in this loop moved the records.
                    handoff = self._handoff(tx, src_j)
                self._hand_over(j, radios[j], handoff)
                radios[j].on_transmission_end(tx)
                continue
            mac = listeners[j]
            if mac is not None:
                mac.on_medium_event()
        # The slot outlives the end notifications, exactly as the legacy
        # per-tx dict entries do: receivers reading this transmission's power
        # from inside ``on_transmission_end`` must see the frozen values, not
        # a fresh fallback draw.
        self._slots.pop(tx.tx_id, None)
        for name in self._tx_touched.pop(tx.tx_id, ()):
            self._rx_power.pop((tx.tx_id, name), None)
            self._captured_mw.pop((tx.tx_id, name), None)
        if tx.source is not None and hasattr(tx.source, "on_own_transmission_end"):
            tx.source.on_own_transmission_end(tx)

    # ------------------------------------------------------------------
    # Reception locks
    # ------------------------------------------------------------------
    def _fold_locks(
        self, tx: Transmission, src_j: int, ending: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Carry every lock the medium keeps across an edge of ``tx``.

        One elementwise fold over the active slots, in active-set order,
        gives each locked radio the level ``decoding_interference_mw`` would
        return with its locked frame excluded: that frame's slot adds an
        exact +0.0 instead.  On an end edge the radios of the other
        technology log their overlap with ``tx``, and the radios locked on
        ``tx`` are left for :meth:`_hand_over`.  Returns the folded radios
        and the frames they are locked on.
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
            return held, held_locks
        levels = np.zeros(held.size)
        slots = self._slots
        for tx_id in self._active:
            dec = slots[tx_id].dec[held]
            dec[held_locks == tx_id] = 0.0
            levels += dec
        now = self.sim.now
        locks.close_segments(held, now, levels)
        if ending:
            rows = held[self._tech_code[held] != _TECH_INDEX[tx.technology]]
            if rows.size:
                locks.close_overlaps(
                    rows, self._source_id(tx), slots[tx.tx_id].rx_dbm[rows], tx.start, now
                )
        return held, held_locks

    def _source_id(self, tx: Transmission) -> int:
        key = (tx.source_name, tx.technology)
        sid = self._source_ids.get(key)
        if sid is None:
            sid = self._source_ids[key] = len(self._source_keys)
            self._source_keys.append(key)
        return sid

    def _open_late(
        self, tx: Transmission, held: np.ndarray, held_locks: np.ndarray, j: int
    ) -> None:
        """Reorder overlaps after an edge nested in ``tx``'s start notifications.

        The loop kernel delivers ``tx``'s start to the radios after ``j`` only
        once the nested edge is done, so a lock among them that the fold
        already carried across ``tx`` opens its overlap with ``tx`` after
        the nested frames' overlaps.  The override dies with the lock.
        """
        later = held > j
        if not later.any():
            return
        locks = self._locks
        key = max(self._active) + 0.5
        slot = self._slots[tx.tx_id]
        late = slot.late if slot.late is not None else {}
        code = _TECH_INDEX[tx.technology]
        for k, lock_id in zip(held[later].tolist(), held_locks[later].tolist()):
            if locks.tx[k] == lock_id and self._tech_code[k] != code:
                late[k] = (lock_id, key)
        slot.late = late

    def _handoff(self, tx: Transmission, src_j: int) -> "_Handoff":
        """The records of every lock on the ending ``tx``, read out in one go."""
        locks = self._locks
        rows = np.flatnonzero(locks.tx == tx.tx_id)
        if src_j >= 0:
            rows = rows[rows != src_j]
        return _Handoff(self, tx, rows)

    def _hand_over(self, j: int, radio: Any, handoff: "_Handoff") -> None:
        """Write radio ``j``'s lock record into its reception context.

        The context ends up as the per-radio path leaves it just before
        ``finalize``, except that the overlaps still open (the active
        cross-technology transmissions) are already logged, after the ones
        closed during the lock, in the order the loop kernel opened them:
        that is where ``finalize`` would log them.  The radio then finishes
        the reception itself.
        """
        i = handoff.index[j]
        context = radio._lock
        n = handoff.seg_n[i]
        if n:
            context.segments = list(zip(handoff.seg_dur[i][:n], handoff.seg_lvl[i][:n]))
        context.segment_start = (handoff.seg_start[i], handoff.seg_level[i])
        # The overlaps in the order the context logs them: the ones closed
        # during the lock, then the ones still open.
        overlaps = []
        n = handoff.ov_n[i]
        if n:
            keys = self._source_keys
            overlaps = [
                (*keys[src], rx_dbm, seconds)
                for src, rx_dbm, seconds in zip(
                    handoff.ov_src[i][:n], handoff.ov_rx[i][:n], handoff.ov_dur[i][:n]
                )
            ]
        if handoff.opened:
            now = self.sim.now
            lock_start = handoff.lock_start[i]
            opened = []
            reordered = False
            for tx_id, other, slot, rx_dbm in handoff.opened:
                if other.source is radio:
                    continue
                key = tx_id
                if slot.late is not None:
                    late = slot.late.get(j)
                    if late is not None and late[0] == handoff.tx_id:
                        key = late[1]
                        reordered = True
                opened.append((key, other, rx_dbm[i]))
            if reordered:
                opened.sort(key=lambda entry: entry[0])
            for _, other, rx_dbm in opened:
                overlaps.append((
                    other.source_name, other.technology, rx_dbm,
                    now - max(lock_start, other.start),
                ))
        if overlaps:
            # Entry by entry as ``_ReceptionContext._log_overlap`` builds it:
            # first sight of a source sets its technology, then the strongest
            # rx power and the summed seconds.
            log: Dict[str, list] = {}
            for name, technology, rx_dbm, seconds in overlaps:
                entry = log.get(name)
                if entry is None:
                    log[name] = [technology, rx_dbm, 0.0 + seconds]
                else:
                    entry[1] = max(entry[1], rx_dbm)
                    entry[2] += seconds
            context.overlap_log = log

    # ------------------------------------------------------------------
    # Power queries
    # ------------------------------------------------------------------
    def rx_power_dbm(self, tx: Transmission, radio: Any) -> float:
        slot = self._slots.get(tx.tx_id)
        if slot is not None:
            j = self._index_of.get(radio.name)
            if j is not None and j < slot.n and j != slot.src_index:
                return float(slot.rx_dbm[j])
        # Legacy fallback (radio attached mid-transmission, or a query about
        # an already-finished transmission), with a buffer-aware fading draw.
        key = (tx.tx_id, radio.name)
        try:
            return self._rx_power[key]
        except KeyError:
            rx_dbm = self.channel.mean_rx_power_dbm(
                tx.power_dbm,
                tx.source_name,
                tx.source.position,
                radio.name,
                radio.position,
            ) + self._draw_fading_scalar(tx.source_name, radio.name)
            self._rx_power[key] = rx_dbm
            touched = self._tx_touched.get(tx.tx_id)
            if touched is not None:
                touched.add(radio.name)
            return rx_dbm

    def captured_power_mw(self, tx: Transmission, radio: Any) -> float:
        slot = self._slots.get(tx.tx_id)
        if slot is not None:
            j = self._index_of.get(radio.name)
            if j is not None and j < slot.n and j != slot.src_index:
                return float(slot.cap[j])
        return super().captured_power_mw(tx, radio)

    def decoding_interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
    ) -> float:
        j = self._index_of.get(radio.name)
        if j is None or j >= self._cover_n:
            return super().decoding_interference_mw(radio, exclude)
        # Fold over the precomputed per-slot demodulator-weighted powers in
        # active-set order.  The radio's own transmissions contribute an
        # exact 0.0 (source column masked), matching the legacy skip; so do
        # zero-capture entries (0.0 × dilution).
        # Fold over the *active* set (a slot lingers through its transmission's
        # end notifications and must not contribute there), in insertion order.
        total = 0.0
        slots = self._slots
        if exclude:
            for tx_id in self._active:
                if tx_id in exclude:
                    continue
                slot = slots.get(tx_id)
                if slot is not None:
                    total += slot.dec[j]
        else:
            for tx_id in self._active:
                slot = slots.get(tx_id)
                if slot is not None:
                    total += slot.dec[j]
        return float(total)

    def _repair(self, acc: _Accum) -> None:
        """Exact re-sum: rebuild ``acc.totals`` from the surviving slots.

        Each slot contributes over its own radio range: a radio outside some
        active slot's range (attached mid-transmission) is below ``_cover_n``
        and served by the legacy fallback, so entries here only need the
        slots that cover them.
        """
        if acc.seed is None:
            totals = np.zeros(len(self.radios))
        else:
            totals = acc.seed.copy()
        for tx_id, tx in self._active.items():
            if not acc.matches(tx.technology):
                continue
            slot = self._slots.get(tx_id)
            if slot is None:
                continue
            totals[: slot.n] += slot.cap
        acc.totals = totals
        acc.dirty_all = False
        acc.dirty.clear()
        self._accumulator_resyncs.inc()

    def _repair_radio(self, acc: _Accum, j: int) -> None:
        if acc.seed is None:
            total = 0.0
        else:
            total = float(acc.seed[j])
        for tx_id, tx in self._active.items():
            if not acc.matches(tx.technology):
                continue
            slot = self._slots.get(tx_id)
            if slot is not None and j < slot.n:
                total += float(slot.cap[j])
        acc.totals[j] = total
        acc.dirty.discard(j)

    def _acc_value(self, acc: _Accum, j: int) -> float:
        if acc.dirty_all:
            self._repair(acc)
        elif j in acc.dirty:
            self._repair_radio(acc, j)
        return float(acc.totals[j])

    def interference_mw(
        self,
        radio: Any,
        exclude: Tuple[int, ...] = (),
        technologies: Optional[Iterable[Technology]] = None,
    ) -> float:
        if exclude:
            return super().interference_mw(radio, exclude, technologies)
        j = self._index_of.get(radio.name)
        if j is None or j >= self._cover_n:
            return super().interference_mw(radio, exclude, technologies)
        if technologies is None:
            wanted = None
        elif type(technologies) is frozenset:
            wanted = technologies
        else:
            wanted = frozenset(technologies)
        acc = self._accs.get(wanted)
        if acc is None:
            if wanted is None:
                acc = _Accum("all", None, len(self.radios))
            else:
                acc = _Accum("set", wanted, len(self.radios))
            self._accs[wanted] = acc
        return self._acc_value(acc, j)

    def cca_power_mw(
        self,
        radio: Any,
        now: float,
        min_age: float = 0.0,
    ) -> Tuple[float, float]:
        j = self._index_of.get(radio.name)
        if min_age != 0.0 or j is None or j >= self._cover_n:
            return super().cca_power_mw(radio, now, min_age)
        if self._cca_wifi is None:
            n = len(self.radios)
            self._cca_wifi = _Accum("wifi", None, n)
            self._cca_wifi.seed = self._noise_mw
            self._cca_other = _Accum("other", None, n)
            self._cca_other.seed = self._noise_mw
        return (
            self._acc_value(self._cca_wifi, j),
            self._acc_value(self._cca_other, j),
        )
