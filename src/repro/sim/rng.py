"""Deterministic, named random-number streams.

Every stochastic component of the simulator (fading on each link, MAC
backoffs of each device, traffic arrivals, CSI noise, ...) draws from its own
stream, derived from a single experiment seed and a stable string name.  This
has two consequences that matter for experiments:

* runs are bit-reproducible given the seed, and
* adding a new random consumer does not perturb the draws seen by existing
  components (streams are independent, not interleaved).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np


def _stable_hash(name: str) -> int:
    """A platform-independent 64-bit hash of ``name`` (``hash()`` is salted)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ----------------------------------------------------------------------
# Link streams as raw PCG64 state
# ----------------------------------------------------------------------
# A link stream is seeded as the words its ``PCG64`` would start from
# (``initial_states``) and drawn through one shared generator, loaded and
# stored in place (``state_slot``).  Each replication of numpy here is
# verified once per process; on a mismatch numpy's own path is taken.
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
#: seed_seq's hash constants ``init * mult**k``: mixing a 128-bit entropy and
#: two spawn words into the pool takes 25 of the first kind, output 9.
_HASH_A = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) & _MASK32 for k in range(25)]
_HASH_B = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) & _MASK32 for k in range(9)]
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Fewest names ``initial_states`` seeds in one vectorized batch: a batch
#: costs about 65 µs whatever its size, one name alone about 10 µs
#: (measured in docs/architecture.md §1).
_BATCH_MIN = 8
_STATE_BYTES = ctypes.c_char * 32
# Normal draws buffer no half word: a stream is its state and inc alone.
_PCG64_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hashmix(value, xor, mul):
    """seed_seq's ``hashmix`` on ints or uint64 arrays of 32-bit values."""
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = (x * _MIX_L - y * _MIX_R) & _MASK32
    return result ^ result >> 16


@functools.lru_cache(maxsize=8)
def _entropy_pool(entropy: int) -> Tuple[int, ...]:
    """seed_seq's pool once ``entropy < 2**128`` is mixed in: every key's start."""
    # numpy zero-pads the run entropy to the pool size whenever a spawn key
    # is present, so spawn words never alias entropy words.
    pool = [_hashmix(entropy >> 32 * i & _MASK32, _HASH_A[i], _HASH_A[i + 1]) for i in range(4)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A[k], _HASH_A[k + 1]))
                k += 1
    return tuple(pool)


def _seed_words(entropy: int, h: int) -> List[int]:
    """``SeedSequence(entropy, spawn_key=(h,)).generate_state(4, np.uint64)``."""
    pool, k = list(_entropy_pool(entropy)), 16
    for word in (h & _MASK32, h >> 32) if h >> 32 else (h,):
        # _mix(pool[dst], _hashmix(word, ...)), inlined: it runs per link.
        for dst in range(4):
            value = (word ^ _HASH_A[k + dst]) * _HASH_A[k + dst + 1] & _MASK32
            value = (pool[dst] * _MIX_L - (value ^ value >> 16) * _MIX_R) & _MASK32
            pool[dst] = value ^ value >> 16
        k += 4
    out = [_hashmix(pool[i % 4], _HASH_B[i], _HASH_B[i + 1]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in (0, 2, 4, 6)]


def _batch_seed_words(entropy: int, hashes: Sequence[int]) -> np.ndarray:
    """:func:`_seed_words` of many ``h >= 2**32`` as an ``(m, 4)`` array, each
    spawn word mixed into all four pool words at once."""
    hs = np.asarray(hashes, dtype=np.uint64)
    pool = np.array(_entropy_pool(entropy), dtype=np.uint64)[:, None]
    a, b = (np.array(c, dtype=np.uint64)[:, None] for c in (_HASH_A, _HASH_B))
    for k, word in ((16, hs & _MASK32), (20, hs >> 32)):
        pool = _mix(pool, _hashmix(word, a[k : k + 4], a[k + 1 : k + 5]))
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:])
    return (out[0::2] | out[1::2] << np.uint64(32)).T


def _pcg64_words(seed: np.ndarray) -> np.ndarray:
    """PCG64's seeding step on ``(m, 4)`` seed words, in 64-bit limbs.

    A seed row is (initial hi, initial lo, seq hi, seq lo); PCG64 sets ``inc
    = seq << 1 | 1`` and ``state = (inc + initial) * _PCG_MULT + inc`` (mod
    ``2**128``).  Rows of the result: (state lo, state hi, inc lo, inc hi).
    """
    one, s32, m32 = np.uint64(1), np.uint64(32), np.uint64(_MASK32)
    inc_lo = (seed[:, 3] << one) | one
    inc_hi = (seed[:, 2] << one) | (seed[:, 3] >> np.uint64(63))
    lo = inc_lo + seed[:, 1]
    hi = inc_hi + seed[:, 0] + (lo < inc_lo)
    m_lo, m_hi = np.uint64(_PCG_MULT & _MASK64), np.uint64(_PCG_MULT >> 64)
    a0, a1, b0, b1 = lo & m32, lo >> s32, m_lo & m32, m_lo >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> s32) + (p01 & m32) + (p10 & m32)
    hi = a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + lo * m_hi + hi * m_lo
    lo = lo * m_lo + inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack([lo, hi, inc_lo, inc_hi], axis=1)


def _words(state: int, inc: int) -> List[int]:
    return [state & _MASK64, state >> 64, inc & _MASK64, inc >> 64]


def _seeded_words(entropy: int, h: int, replicate: bool) -> List[int]:
    """The words ``PCG64(SeedSequence(entropy, spawn_key=(h,)))`` starts from;
    ``replicate`` (for ``entropy < 2**128``) works them out on ints instead."""
    if not replicate:
        state = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(h,))).state
        return _words(state["state"]["state"], state["state"]["inc"])
    w0, w1, w2, w3 = _seed_words(entropy, h)
    inc = (w2 << 65 | w3 << 1 | 1) & (1 << 128) - 1
    return _words(((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & (1 << 128) - 1, inc)


@functools.lru_cache(maxsize=None)
def _seeding_ok(batch: bool = False) -> bool:
    """Whether seeding one name on ints, or many vectorized (``batch``), gives
    numpy's own words: checked once per process, the batch at its first use
    (its numpy kernels cost a process about 0.3 MB once touched)."""
    hashes = [2**32, 2**64 - 1, _stable_hash("fading/A->B")]
    if not batch:
        hashes += [0, 2**32 - 1]  # one-word spawn keys, which no batch takes
    try:
        for entropy in (0, 2**63 - 1, 2**96 + 5):
            if batch:
                words = _pcg64_words(_batch_seed_words(entropy, hashes)).tolist()
            else:
                words = [_seeded_words(entropy, h, True) for h in hashes]
            if words != [_seeded_words(entropy, h, False) for h in hashes]:
                return False
    except Exception:  # pragma: no cover - any surprise disables the fast path
        return False
    return True


def _struct_words(bits: np.random.PCG64) -> memoryview:
    """The four state words of ``bits``: a writable uint64 view of its struct."""
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value
    return memoryview(_STATE_BYTES.from_address(address)).cast("B").cast("Q")


@functools.lru_cache(maxsize=None)
def _state_copy_ok() -> bool:
    """Whether ``_struct_words`` matches the ``state`` property, checked once."""
    bits = np.random.PCG64(1)
    # Dereference nothing outside the bit generator object itself.
    address = ctypes.c_void_p.from_address(bits.ctypes.state_address).value or 0
    if not id(bits) <= address <= id(bits) + type(bits).__basicsize__ - 32:
        return False
    try:
        for h in (2**40 + 3, 2**64 - 1):
            words = _seeded_words(7, h, False)
            slot = _struct_words(bits)
            slot[:] = array("Q", words)
            state = bits.state["state"]
            np.random.Generator(bits).random(3)
            stored = list(slot[:2]) == list(_StateDict(bits)[:2])
            if _words(state["state"], state["inc"]) != words or not stored:
                return False
    except Exception:  # pragma: no cover - any surprise disables the copy
        return False
    return True


class _StateDict:
    """:func:`state_slot` through the ``state`` property, for any layout."""

    def __init__(self, bits: np.random.PCG64):
        self.bits = bits

    def __setitem__(self, _all: slice, words: Sequence[int]) -> None:
        s_lo, s_hi, i_lo, i_hi = words
        state = {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo}
        self.bits.state = dict(_PCG64_STATE, state=state)

    def __getitem__(self, _state: slice) -> array:
        return array("Q", _words(self.bits.state["state"]["state"], 0)[:2])


def state_slot(bits: np.random.PCG64):
    """``slot[:] = words`` loads a stream's four uint64 words into ``bits``,
    ``slot[:2]`` reads its two state words: a view of the verified state
    struct, else through ``state``.  One per call: the address is ``bits``'."""
    return _struct_words(bits) if _state_copy_ok() else _StateDict(bits)


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.stream("fading/A->F")
    >>> b = streams.stream("mac/zigbee-1")
    >>> a is streams.stream("fading/A->F")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_hash(name),))
            generator = np.random.Generator(np.random.PCG64(seq))
            self._streams[name] = generator
        return generator

    def initial_states(self, names: Sequence[str]) -> np.ndarray:
        """Row ``j``: the (state lo, state hi, inc lo, inc hi) words the PCG64
        of :meth:`stream(names[j]) <stream>` starts from; no cache, no generator.

        ``_BATCH_MIN`` names or more are seeded in one vectorized batch (unless
        a stable hash fits in 32 bits, probability ``2**-32`` each), fewer one
        by one on ints; seeds ``>= 2**128`` take numpy's own seeding.
        """
        hashes = [_stable_hash(n) for n in names]
        fast = _seeding_ok() and self.seed < 2**128
        if fast and len(hashes) >= _BATCH_MIN and min(hashes) >= 2**32 and _seeding_ok(True):
            return _pcg64_words(_batch_seed_words(self.seed, hashes))
        words = [_seeded_words(self.seed, h, fast) for h in hashes]
        return np.array(words, dtype=np.uint64).reshape(-1, 4)

    def fork(self, salt: str) -> "RandomStreams":
        """Derive an independent family of streams (e.g. per repetition).

        The child seed is produced by SeedSequence mixing of (parent seed,
        hash("fork/" + salt)) rather than an affine combination: the old
        ``seed * 1000003 + hash(salt)`` scheme was invertible per-salt, so
        distinct (seed, salt) pairs could collide exactly (e.g. a fork of
        seed 0 collided with a root ``RandomStreams`` whose seed was
        ``_stable_hash(salt) % 2**63``), correlating supposedly independent
        repetitions.  The "fork/" prefix also keeps fork-derived entropy
        disjoint from the ``stream(name)`` spawn-key namespace.
        """
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(_stable_hash("fork/" + salt),)
        )
        return RandomStreams(seed=int(seq.generate_state(1, np.uint64)[0]) % (2**63))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RandomStreams(seed={self.seed}, streams={len(self._streams)})"
