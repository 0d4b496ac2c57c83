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
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..sim.rng import RandomStreams, state_slot

_NO_WORDS = np.zeros(0, dtype=np.uint64)


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
    :class:`~repro.phy.medium.Medium` for all links in a scenario.  No link
    gets a generator: its streams are seeded as raw PCG64 words
    (:meth:`~repro.sim.rng.RandomStreams.initial_states`) and drawn through
    one shared generator.  A shadowing term is one draw; a fading stream
    lives here as its PCG64 state alone, and both medium kernels draw link
    fading through :meth:`fading_draws`.
    Link identity for shadowing purposes is the *name pair* of the endpoints,
    so a mobile device keeps its shadowing term while its distance changes
    (the distance-dependent part follows every move).

    :meth:`link_budget` computes the path loss from the two positions on
    every call; only the shadowing term is kept.  The medium kernels hold
    each link's loss in per-source link rows keyed on the **position
    epoch**, which :meth:`invalidate_gains` advances (:meth:`Radio.move_to
    <repro.devices.base.Radio.move_to>` calls it whenever an endpoint
    moves), so static topologies compute the ``log10`` once per link.
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
        # Per source name a flat table of (state lo, state hi, inc lo, inc hi)
        # words, four per receiver id in ``_fading_ids``.  An inc is always
        # odd, so a zero low inc word marks a link not yet seeded.
        self._fading_ids: Dict[str, int] = {}
        self._fading_states: Dict[str, np.ndarray] = {}
        # The one generator every link stream is drawn through.
        self._fading_gen = np.random.Generator(np.random.PCG64(0))
        #: Advanced by :meth:`invalidate_gains`; the medium kernels rebuild
        #: link rows from earlier epochs on next use.
        self.position_epoch = 0

    def invalidate_gains(self) -> None:
        """Advance the position epoch after any endpoint moved.

        Mobility updates go through here (see ``Radio.move_to``) so the
        medium kernels' link rows keep recomputing distances in the Fig. 12
        experiment while static topologies pay the path-loss ``log10`` once
        per link.
        """
        self.position_epoch += 1

    def link_budget(
        self,
        tx_name: str,
        tx_pos: Position,
        rx_name: str,
        rx_pos: Position,
    ) -> Tuple[float, float]:
        """(path loss dB, shadowing dB) for one link."""
        loss = self.path_loss.loss_db(tx_pos.distance_to(rx_pos))
        pair = (tx_name, rx_name) if tx_name <= rx_name else (rx_name, tx_name)
        shadow = self._shadowing_cache.get(pair)
        if shadow is None:
            shadow = self.ensure_shadowing(tx_name, (rx_name,))[0]
        return loss, shadow

    def ensure_shadowing(self, tx_name: str, rx_names: Sequence[str]) -> List[float]:
        """The shadowing terms from ``tx_name`` toward ``rx_names``, in order.

        Each missing pair is seeded as its ``shadowing/<a>|<b>`` stream and
        gets one normal through the shared generator: the drawn value is all
        that is kept.  All zeros when shadowing is disabled.
        """
        keys = [(tx_name, rx) if tx_name <= rx else (rx, tx_name) for rx in rx_names]
        sigma = self.fading.shadowing_sigma_db
        if sigma <= 0.0:
            return [0.0] * len(keys)
        cache = self._shadowing_cache
        missing = list(dict.fromkeys(key for key in keys if key not in cache))
        if missing:
            seeded = self.streams.initial_states([f"shadowing/{a}|{b}" for a, b in missing])
            words = memoryview(seeded).cast("B").cast("Q")
            gen = self._fading_gen
            slot, normal = state_slot(gen.bit_generator), gen.normal
            for c, key in enumerate(missing):
                slot[:] = words[4 * c : 4 * c + 4]
                cache[key] = float(normal(0.0, sigma))
        return [cache[key] for key in keys]

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
        link's first call seeds its words; every block loads them into the
        shared generator, draws, and stores the advanced state back.
        """
        ids = self._fading_ids
        rows = [ids.setdefault(rx, len(ids)) for rx in rx_names]
        table = self._fading_states.get(tx_name, _NO_WORDS)
        if len(table) < 4 * len(ids):
            grown = np.zeros(4 * len(ids) - len(table), dtype=np.uint64)
            table = self._fading_states[tx_name] = np.concatenate([table, grown])
        words = memoryview(table).cast("B").cast("Q")
        fresh = [k for k, r in enumerate(rows) if not words[4 * r + 2]]
        if fresh:
            table.reshape(-1, 4)[[rows[k] for k in fresh]] = self.streams.initial_states(
                [f"fading/{tx_name}->{rx_names[k]}" for k in fresh]
            )
        sigma = self.fading.fading_sigma_db
        out = np.empty((len(rows), size))
        gen = self._fading_gen
        slot, normal = state_slot(gen.bit_generator), gen.normal
        for k, r in enumerate(rows):
            c = 4 * r
            slot[:] = words[c : c + 4]
            out[k] = normal(0.0, sigma, size)
            words[c : c + 2] = slot[:2]
        return out
