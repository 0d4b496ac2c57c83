"""Radio propagation: positions, path loss, shadowing, and fast fading.

The office environment of the paper (Fig. 6) is modeled with the standard
indoor log-distance path-loss model plus two random components:

* **Shadowing** — a log-normal, *per-link static* term capturing walls and
  furniture.  It is drawn once per (transmitter, receiver) pair from a
  deterministic stream so a given topology always sees the same mean link
  budget.
* **Fast fading** — a per-frame term capturing multipath variation, drawn per
  transmission.  A small Gaussian in dB (Rician-like, office LoS) keeps the
  reception thresholds soft, which is what makes the paper's precision/recall
  tables take values strictly between 0 and 1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..sim.rng import RandomStreams

_MASK64 = (1 << 64) - 1

#: Cache entry of :meth:`Channel.link_budget`:
#: (tx position, rx position, path loss dB, shadowing dB, position epoch).
_LinkBudget = Tuple["Position", "Position", float, float, int]


@dataclass(frozen=True)
class Position:
    """A point in the 2-D office plane, meters."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def moved(self, dx: float, dy: float) -> "Position":
        return Position(self.x + dx, self.y + dy)


@dataclass
class PathLossModel:
    """Log-distance path loss: ``PL(d) = pl0 + 10 n log10(d / d0)``.

    Defaults: ``pl0 = 40 dB`` at 1 m (free space at 2.4 GHz is 40.05 dB) and
    exponent ``n = 3.0``, a common office value.  Distances below ``min_distance``
    are clamped so colocated devices do not produce infinite power.
    """

    pl0_db: float = 40.0
    exponent: float = 3.0
    reference_m: float = 1.0
    min_distance_m: float = 0.3

    def loss_db(self, distance_m: float) -> float:
        d = max(distance_m, self.min_distance_m)
        return self.pl0_db + 10.0 * self.exponent * math.log10(d / self.reference_m)


@dataclass
class FadingModel:
    """Random link-budget components.

    ``shadowing_sigma_db`` is the standard deviation of the static per-link
    term; ``fading_sigma_db`` the per-frame term.  Either may be zero for a
    fully deterministic channel (useful in unit tests).
    """

    shadowing_sigma_db: float = 2.0
    fading_sigma_db: float = 2.5


class Channel:
    """Computes received power between positions.

    The channel owns every link's randomness and is shared by the
    :class:`~repro.phy.medium.Medium` for all links in a scenario.  Each
    shadowing term is one draw from a stream that is dropped right after it.
    Each fading stream lives here as its PCG64 state alone, in per-source
    arrays: :meth:`fading_draws` loads it into one shared generator, draws a
    block, and stores the advanced state, so no per-link generator outlives
    a draw and :class:`~repro.sim.rng.RandomStreams` keeps no per-link state.
    Both medium kernels draw link fading through that one method.
    Link identity for shadowing purposes is the *name pair* of the endpoints,
    so a mobile device keeps its shadowing term while its distance changes
    (the distance-dependent part is recomputed every frame).

    The deterministic part of each link budget (log-distance path loss plus
    the static shadowing term) is cached per (tx, rx) name pair and keyed on
    a **position epoch**: static topologies compute the ``log10`` once per
    link and reuse it for every subsequent frame, while a call to
    :meth:`invalidate_gains` (issued by :meth:`Radio.move_to
    <repro.devices.base.Radio.move_to>` whenever an endpoint moves) advances
    the epoch and lazily discards every cached budget.  Entries additionally
    pin the exact :class:`Position` objects they were computed from, so even
    a position swap that bypasses the epoch (e.g. constructing a fresh
    ``Position`` in a unit test) can never be served a stale loss.
    """

    def __init__(
        self,
        path_loss: PathLossModel,
        fading: FadingModel,
        streams: RandomStreams,
    ):
        self.path_loss = path_loss
        self.fading = fading
        self.streams = streams
        self._shadowing_cache: Dict[Tuple[str, str], float] = {}
        # Link fading streams as PCG64 state, not as generators: per source
        # name a flat table of (state high, state low, inc high, inc low)
        # words, four per receiver id in ``_fading_ids``.  An inc is always
        # odd, so a zero low inc word marks a link not yet seeded.
        self._fading_ids: Dict[str, int] = {}
        self._fading_states: Dict[str, array] = {}
        # The one generator every stored stream is drawn through: a block
        # loads a link's state into it, draws, and reads the state back.
        self._fading_bits = np.random.PCG64(0)
        self._fading_gen = np.random.Generator(self._fading_bits)
        self._fading_load = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            # Normal draws take whole 64-bit words, so no half word is ever
            # buffered: a stream is its state and inc alone.
            "has_uint32": 0,
            "uinteger": 0,
        }
        #: Advanced by :meth:`invalidate_gains`; cached link budgets from
        #: earlier epochs are recomputed on next use.
        self.position_epoch = 0
        self._gain_cache: Dict[Tuple[str, str], _LinkBudget] = {}
        self.gain_hits = 0
        self.gain_misses = 0

    def invalidate_gains(self) -> None:
        """Advance the position epoch after any endpoint moved.

        Mobility updates go through here (see ``Radio.move_to``) so the
        Fig. 12 experiment keeps recomputing distances while static
        topologies pay the path-loss ``log10`` once per link.
        """
        self.position_epoch += 1

    def link_budget(
        self,
        tx_name: str,
        tx_pos: Position,
        rx_name: str,
        rx_pos: Position,
    ) -> Tuple[float, float]:
        """(path loss dB, shadowing dB) for one link, cached per epoch."""
        key = (tx_name, rx_name)
        entry = self._gain_cache.get(key)
        if (
            entry is not None
            and entry[4] == self.position_epoch
            and entry[0] is tx_pos
            and entry[1] is rx_pos
        ):
            self.gain_hits += 1
            return entry[2], entry[3]
        self.gain_misses += 1
        loss = self.path_loss.loss_db(tx_pos.distance_to(rx_pos))
        shadow = self._shadowing_db(tx_name, rx_name)
        self._gain_cache[key] = (tx_pos, rx_pos, loss, shadow, self.position_epoch)
        return loss, shadow

    def ensure_shadowing(self, tx_name: str, rx_names: list) -> None:
        """Draw the shadowing terms for ``tx_name`` toward ``rx_names``.

        Each missing pair gets one normal from its dedicated stream, which is
        batch-seeded and then dropped: the drawn value is all that is kept.
        A no-op when shadowing is disabled.
        """
        if self.fading.shadowing_sigma_db <= 0.0:
            return
        missing = []
        seen = set()
        cache = self._shadowing_cache
        for rx_name in rx_names:
            key = (tx_name, rx_name) if tx_name <= rx_name else (rx_name, tx_name)
            if key not in cache and key not in seen:
                seen.add(key)
                missing.append(key)
        if not missing:
            return
        gens = self.streams.new_streams([f"shadowing/{a}|{b}" for a, b in missing])
        sigma = self.fading.shadowing_sigma_db
        for key, rng in zip(missing, gens):
            cache[key] = float(rng.normal(0.0, sigma))

    def _shadowing_db(self, tx_name: str, rx_name: str) -> float:
        key = (tx_name, rx_name) if tx_name <= rx_name else (rx_name, tx_name)
        value = self._shadowing_cache.get(key)
        if value is None:
            self.ensure_shadowing(tx_name, [rx_name])
            value = self._shadowing_cache.setdefault(key, 0.0)
        return value

    def mean_rx_power_dbm(
        self,
        tx_power_dbm: float,
        tx_name: str,
        tx_pos: Position,
        rx_name: str,
        rx_pos: Position,
    ) -> float:
        """Received power without the per-frame fading term."""
        loss, shadow = self.link_budget(tx_name, tx_pos, rx_name, rx_pos)
        return tx_power_dbm - loss + shadow

    def fading_draws(self, tx_name: str, rx_names: Sequence[str], size: int) -> np.ndarray:
        """The next ``size`` fading values of each link from ``tx_name``.

        Row ``k`` of the result continues the ``fading/<tx>-><rx_names[k]>``
        stream where the previous call left it (``rx_names`` are distinct),
        so blocks of any sizes read the stream's scalar draws in order.  A
        link's first call seeds its stream through
        ``RandomStreams.new_streams`` (batch-seeded when a row lights up
        many links at once); every call keeps only the stream's state.
        """
        ids = self._fading_ids
        cols = [4 * ids.setdefault(rx, len(ids)) for rx in rx_names]
        table = self._fading_states.get(tx_name)
        if table is None:
            table = self._fading_states[tx_name] = array("Q")
        if len(table) < 4 * len(ids):
            table.frombytes(bytes(32 * len(ids) - 8 * len(table)))
        sigma = self.fading.fading_sigma_db
        out = np.empty((len(cols), size))
        bits, gen, load = self._fading_bits, self._fading_gen, self._fading_load
        loaded = load["state"]
        fresh = []
        for k, c in enumerate(cols):
            inc_low = table[c + 3]
            if not inc_low:
                fresh.append(k)
                continue
            loaded["state"] = (table[c] << 64) | table[c + 1]
            loaded["inc"] = (table[c + 2] << 64) | inc_low
            bits.state = load
            out[k] = gen.normal(0.0, sigma, size)
            s = bits.state["state"]["state"]
            table[c] = s >> 64
            table[c + 1] = s & _MASK64
        if fresh:
            gens = self.streams.new_streams([f"fading/{tx_name}->{rx_names[k]}" for k in fresh])
            for k, new in zip(fresh, gens):
                out[k] = new.normal(0.0, sigma, size)
                state = new.bit_generator.state["state"]
                s, inc = state["state"], state["inc"]
                c = cols[k]
                table[c] = s >> 64
                table[c + 1] = s & _MASK64
                table[c + 2] = inc >> 64
                table[c + 3] = inc & _MASK64
        return out

    def frame_fading_db(self, tx_name: str, rx_name: str) -> float:
        """Draw the per-frame fading term for one (frame, link) pair."""
        if self.fading.fading_sigma_db <= 0.0:
            return 0.0
        return float(self.fading_draws(tx_name, (rx_name,), 1)[0, 0])

    def rx_power_dbm(
        self,
        tx_power_dbm: float,
        tx_name: str,
        tx_pos: Position,
        rx_name: str,
        rx_pos: Position,
    ) -> float:
        """Received power including a fresh per-frame fading draw."""
        return self.mean_rx_power_dbm(
            tx_power_dbm, tx_name, tx_pos, rx_name, rx_pos
        ) + self.frame_fading_db(tx_name, rx_name)
