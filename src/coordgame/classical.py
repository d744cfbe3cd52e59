"""Shared-sequence strategies for the coordination game.

The players agree in advance on four bit sequences with controlled
Hamming distances and answer rounds by reading the sequence their current
state selects.  Two generation modes exist: ``disjoint-flips`` derives
each sequence from its predecessor by flipping a fresh set of positions,
making the pairwise distances exact; ``bsc-chain`` passes each sequence
through an independent binary symmetric channel, making them exact only
in expectation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .game import MATCH_CHUNK_ROUNDS, MismatchProfile, _as_binary, _as_state

__all__ = [
    "MODES",
    "BitSequenceSet",
    "ClassicalConfig",
    "SequenceStrategy",
    "InfeasibleFlipCount",
    "LengthMismatch",
    "generate_sequences",
    "classical_strategy",
    "analytic_classical_profile",
]

Mode = Literal["disjoint-flips", "bsc-chain"]
MODES: tuple[str, ...] = ("disjoint-flips", "bsc-chain")


class InfeasibleFlipCount(ValueError):
    """Three disjoint flip sets of the requested size do not fit in N positions."""


class LengthMismatch(ValueError):
    """A ``BitSequenceSet``'s ``base`` and ``flips`` differ in length."""


#: Positions per block of the disjoint-flips draw, which sets its bytes:
#: the block's int64 index, 120 KiB, stays below glibc's 128 KiB mmap threshold.
_FLIP_BLOCK = 15 * 1024


def flip_count(q: float, n: int) -> int:
    """Number of bits flipped per generation step: q*n rounded to nearest."""
    return int(round(q * n))


@dataclass(frozen=True)
class ClassicalConfig:
    """Parameters for generating a shared sequence set.

    ``q`` is the flip fraction per generation step; in disjoint-flips mode
    the three flip sets of size round(q*n) must fit disjointly in n
    positions, which bounds q below 1/3 for any usable n.
    """

    n: int
    q: float
    mode: Mode = "disjoint-flips"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sequence length n must be >= 1")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError(f"flip fraction q={self.q!r} outside [0, 1]")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "disjoint-flips" and 3 * flip_count(self.q, self.n) > self.n:
            raise InfeasibleFlipCount(
                f"3 * round(q*n) = {3 * flip_count(self.q, self.n)} exceeds n = {self.n}; "
                "disjoint flip sets need q below 1/3"
            )


@dataclass(frozen=True)
class BitSequenceSet:
    """Four equal-length bit sequences: sequence 0 in ``base``, and bit s - 1 of
    ``flips`` set where sequence s differs from sequence s - 1 (s = 1, 2, 3).

    Sequence k is ``base ^ parity(flips & (2**k - 1))``, a form any four
    sequences have.  Both columns are kept as read-only uint8 views: a uint8
    array of the caller's stays writable and shares its memory with the set.
    """

    base: np.ndarray
    flips: np.ndarray

    def __post_init__(self) -> None:
        base = np.asarray(self.base)
        if base.ndim != 1:
            raise ValueError("bit sequence must be one-dimensional")
        base, flips = _as_binary(base, "bit sequence entries must be 0 or 1"), np.asarray(self.flips)
        if flips.shape != base.shape:
            raise LengthMismatch("base and flips must share one length")
        # compared before any cast, which would wrap 8 to 0 and truncate 0.5 to 0
        if not (flips.max(initial=0) <= 7 if flips.dtype == np.uint8 else np.isin(flips, range(8)).all()):
            raise ValueError("flips entries must be integers from 0 to 7")
        for name, arr in (("base", base), ("flips", flips.astype(np.uint8, copy=False))):
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def length(self) -> int:
        return len(self.base)

    def sequence(self, k: int) -> np.ndarray:
        """Sequence k, 0 to 3, as a new uint8 array."""
        return _parity(self.flips, (1 << _as_index(k)) - 1) ^ self.base

    def distance(self, alpha: int, beta: int) -> int:
        """Hamming distance between sequences alpha and beta, from the steps between them."""
        low, high = sorted((_as_index(alpha), _as_index(beta)))
        return int(np.count_nonzero(_parity(self.flips, (1 << high) - (1 << low))))


def _as_index(k) -> int:
    if isinstance(k, (int, np.integer)) and 0 <= k <= 3:
        return int(k)
    raise ValueError(f"sequence index must be 0, 1, 2 or 3, got {k!r}")


def _wrap(column: np.ndarray, start: int, n: int) -> np.ndarray:
    """The n entries from position ``start mod len(column)`` on, wrapping round: a view unless they wrap."""
    first = start % len(column)
    rest = first + n - len(column)  # the entries from the first wrap on, read from position 0
    if rest <= 0:
        return column[first : first + n]
    if rest <= len(column):  # one wrap: copy the window alone
        return np.concatenate((column[first:], column[:rest]))
    # many wraps: one copy of the column repeated over every lap the window touches
    laps = -(-(first + n) // len(column))
    return np.broadcast_to(column, (laps, len(column))).reshape(-1)[first : first + n]


def _parity(steps: np.ndarray, mask: int) -> np.ndarray:
    """A new uint8 array, 1 where ``steps & mask`` has an odd number of set bits."""
    out = steps & mask  # folded into bit 0 by shifts, not a lookup table, which is 3 to 5 times slower
    for shift in (2, 1)[3 - mask.bit_length() :]:
        out ^= out >> shift
    out &= 1
    return out


def generate_sequences(config: ClassicalConfig) -> BitSequenceSet:
    """Generate the four shared sequences for the given configuration.

    The base sequence is fair-coin random.  In disjoint-flips mode each
    later sequence flips round(q*n) positions of its predecessor chosen
    uniformly from positions untouched by every earlier step, so
    d(Xa, Xb) = round(q*n) * |a - b| holds exactly; the draw walks the
    positions in blocks of ``_FLIP_BLOCK`` and places the flipped ones
    alone.  In bsc-chain mode each later sequence is its predecessor sent
    through a binary symmetric channel with crossover probability q,
    independently per bit.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    base = rng.integers(0, 2, size=n, dtype=np.uint8)

    flips = np.zeros(n, dtype=np.uint8)
    if config.mode == "disjoint-flips":
        f = flip_count(config.q, n)
        left = np.array([n - 3 * f, f, f, f], dtype=np.int64)  # unplaced: no step, steps 1, 2, 3
        for lo in range(0, n, _FLIP_BLOCK):
            block = flips[lo : lo + _FLIP_BLOCK]
            # how many positions of each kind left fall in this block, then
            # which of its places the flipped ones take, in uniform order; no
            # index outlives its statement, so only one block's is ever held
            counts = rng.multivariate_hypergeometric(left, len(block))
            left -= counts
            steps = np.repeat(np.array([1, 2, 4], dtype=np.uint8), counts[1:])
            block[rng.choice(len(block), len(steps), replace=False)] = steps
    else:
        for step in range(3):
            # random takes one raw word per double: slices draw one n-long call's stream
            for lo in range(0, n, MATCH_CHUNK_ROUNDS):
                part = flips[lo : lo + MATCH_CHUNK_ROUNDS]
                part |= (rng.random(len(part)) < config.q).view(np.uint8) << step

    return BitSequenceSet(base, flips)


@dataclass(frozen=True)
class SequenceStrategy:
    """Plays the bit of a pre-shared sequence at position round mod N.

    State 0 plays sequence ``index_state0`` of the nonempty set
    ``sequences`` and state 1 sequence ``index_state1``; bit 0 is move A.
    ``moves(start, n, state)`` returns a new array of the n bits from
    position ``start mod N`` on, wrapping round as often as it needs, read
    from both columns of the set; it raises ``ValueError`` on a state other
    than 0 or 1.
    """

    sequences: BitSequenceSet
    index_state0: int
    index_state1: int

    def __post_init__(self) -> None:
        if not self.sequences.length:
            raise ValueError("bit sequences must not be empty")
        for name in ("index_state0", "index_state1"):
            object.__setattr__(self, name, _as_index(getattr(self, name)))

    def moves(self, start: int, n: int, state: int) -> np.ndarray:
        k = self.index_state1 if _as_state(state) else self.index_state0
        out = _parity(_wrap(self.sequences.flips, start, n), (1 << k) - 1)
        out ^= _wrap(self.sequences.base, start, n)
        return out


def classical_strategy(player: int, sequences: BitSequenceSet) -> SequenceStrategy:
    """Strategy for one player under the shared-sequence assignment.

    Player 1 reads sequence 0 in state 0 and sequence 2 in state 1;
    player 2 reads sequence 3 in state 0 and sequence 1 in state 1.  Under
    this assignment the (0,0) rounds compare the two outermost sequences
    while every other state pair compares sequences one step apart.
    """
    if player == 1:
        return SequenceStrategy(sequences, 0, 2)
    if player == 2:
        return SequenceStrategy(sequences, 3, 1)
    raise ValueError(f"player must be 1 or 2, got {player!r}")


def analytic_classical_profile(q: float, mode: Mode = "disjoint-flips") -> MismatchProfile:
    """Exact mismatch profile of the shared-sequence strategy.

    disjoint-flips gives (3q, q, q, q).  bsc-chain gives q00 = 3q - 6q^2 +
    4q^3, the probability of an odd number of crossovers over three
    channel passes, with the other entries still q.
    """
    if mode == "disjoint-flips":
        if not 0.0 < q < 1.0 / 3.0:
            raise ValueError("disjoint-flips analytic profile needs 0 < q < 1/3")
        return MismatchProfile(q00=3.0 * q, q01=q, q10=q, q11=q)
    if mode == "bsc-chain":
        if not 0.0 < q < 0.5:
            raise ValueError("bsc-chain analytic profile needs 0 < q < 1/2")
        q00 = 3.0 * q - 6.0 * q**2 + 4.0 * q**3
        return MismatchProfile(q00=q00, q01=q, q10=q, q11=q)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
