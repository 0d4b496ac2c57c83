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
    array reads.
    """

    __slots__ = ("n", "src_index", "rx_dbm", "cap", "dec", "tx")

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
        #: they are notified on every transmission edge.
        self._sensitive = np.zeros(0, dtype=bool)
        #: Indices of radios currently holding a reception lock (maintained
        #: through ``on_radio_lock_changed``).
        self._locked: set = set()
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

    def on_radio_lock_changed(self, radio: Any, locked: bool) -> None:
        j = self._index_of.get(radio.name)
        if j is None or self.radios[j] is not radio:
            return
        if locked:
            self._locked.add(j)
        else:
            self._locked.discard(j)

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
        # Notification pruning: a start notification only *does* anything for
        # a radio that (a) could lock onto this transmission, (b) already
        # holds a reception lock, or (c) has an event-sensitive MAC.  (a) is
        # screened vectorized with the exact checks Radio.on_transmission_start
        # performs (technology, band equality, rx power vs. sensitivity) —
        # false positives are re-filtered by the radio, false negatives are
        # impossible.  Everyone else would run a provably empty no-op, so the
        # legacy behavior is preserved bit-for-bit.  Index order == attach
        # order, matching the legacy iteration order.
        notify = self._sensitive.copy()
        if frame is not None:
            notify |= (
                (self._tech_code == _TECH_INDEX[technology])
                & (self._band_low == band.low_mhz)
                & (self._band_high == band.high_mhz)
                & (self._band_bw == band.bandwidth_mhz)
                & (rx_dbm >= self._sens)
            )
        for j in self._locked:
            notify[j] = True
        if js >= 0:
            notify[js] = False
        radios = self.radios
        for j in np.nonzero(notify)[0].tolist():
            radios[j].on_transmission_start(tx)
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
        # End notifications are no-ops except for locked radios and
        # event-sensitive MACs (there is no lock-acquisition path on an end
        # edge), so the pruned set needs no decode screen.
        notify = self._sensitive.copy()
        for j in self._locked:
            notify[j] = True
        src_j = self._index_of.get(tx.source_name, -1)
        if src_j >= 0 and self.radios[src_j] is not tx.source:
            src_j = -1
        if src_j >= 0:
            notify[src_j] = False
        radios = self.radios
        for j in np.nonzero(notify)[0].tolist():
            radios[j].on_transmission_end(tx)
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
