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

from .game import MismatchProfile, _as_binary, _as_state

__all__ = [
    "MODES",
    "BitSequenceSet",
    "ClassicalConfig",
    "SequenceStrategy",
    "InfeasibleFlipCount",
    "LengthMismatch",
    "generate_sequences",
    "hamming_distance",
    "classical_strategy",
    "analytic_classical_profile",
]

Mode = Literal["disjoint-flips", "bsc-chain"]
MODES: tuple[str, ...] = ("disjoint-flips", "bsc-chain")


class InfeasibleFlipCount(ValueError):
    """Three disjoint flip sets of the requested size do not fit in N positions."""


class LengthMismatch(ValueError):
    """Bit sequences of unequal length were compared."""


def _as_bits(seq) -> np.ndarray:
    arr = np.asarray(seq)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    return _as_binary(arr, "bit sequence entries must be 0 or 1")


def hamming_distance(a, b) -> int:
    """Number of positions at which two equal-length bit sequences differ."""
    x, y = _as_bits(a), _as_bits(b)
    if len(x) != len(y):
        raise LengthMismatch(f"sequence lengths differ: {len(x)} vs {len(y)}")
    return int(np.count_nonzero(x != y))


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
    """Four equal-length bit sequences, one per sequence index 0..3.

    The set holds read-only views of the arrays it is given, not copies:
    the caller's arrays stay writable and share their memory with the set.
    """

    x0: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.x0)
        for name, arr in zip(("x0", "x1", "x2", "x3"), self.sequences):
            if arr.shape != (n,):
                raise LengthMismatch("all four sequences must share one length")
            view = arr.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)

    @property
    def sequences(self) -> tuple[np.ndarray, ...]:
        return (self.x0, self.x1, self.x2, self.x3)

    @property
    def length(self) -> int:
        return len(self.x0)

    def distance(self, alpha: int, beta: int) -> int:
        """Hamming distance between sequences alpha and beta."""
        return hamming_distance(self.sequences[alpha], self.sequences[beta])


def generate_sequences(config: ClassicalConfig) -> BitSequenceSet:
    """Generate the four shared sequences for the given configuration.

    The base sequence is fair-coin random.  In disjoint-flips mode each
    later sequence flips round(q*n) positions of its predecessor chosen
    uniformly from positions untouched by every earlier step, so
    d(Xa, Xb) = round(q*n) * |a - b| holds exactly.  In bsc-chain mode
    each later sequence is its predecessor sent through a binary symmetric
    channel with crossover probability q, independently per bit.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    base = rng.integers(0, 2, size=n, dtype=np.uint8)

    if config.mode == "disjoint-flips":
        f = flip_count(config.q, n)
        # First 3f entries of a uniform permutation = three sequential
        # uniform-without-replacement draws from the untouched pool.
        # rng.permutation(n) is arange(n) shuffled, and shuffle's swaps do
        # not depend on the item size: the smallest dtype that holds index
        # n - 1 gives the same flip sets in 1/8 to 1/2 of int64's memory.
        # Only the 3f entries read below are kept, so the rest is freed now.
        perm = np.arange(n, dtype=np.min_scalar_type(n - 1))
        rng.shuffle(perm)
        perm = perm[: 3 * f].copy()
        seqs = [base]
        for step in range(3):
            nxt = seqs[-1].copy()
            idx = perm[step * f : (step + 1) * f]
            nxt[idx] ^= 1
            seqs.append(nxt)
    else:
        seqs = [base]
        for _ in range(3):
            # uint8 ^ bool is uint8 with the same values: no uint8 copy of the mask
            seqs.append(seqs[-1] ^ (rng.random(n) < config.q))

    return BitSequenceSet(*seqs)


@dataclass(frozen=True)
class SequenceStrategy:
    """Plays the bit of a pre-shared sequence at position round mod N.

    ``seq_state0`` answers state 0 and ``seq_state1`` state 1; bit 0 is
    move A, bit 1 move B.  Both must be 1-D, 0/1 and of one nonzero length
    N, and are kept as read-only uint8.  ``moves(start, n, state)`` returns
    a copy of the window of n bits from position ``start mod N`` of the
    sequence that ``state`` selects, wrapping round to the start as often
    as it needs; it raises ``ValueError`` on a state other than 0 or 1.
    The moves never share memory with the sequences.
    """

    seq_state0: np.ndarray
    seq_state1: np.ndarray

    def __post_init__(self) -> None:
        zero, one = _as_bits(self.seq_state0), _as_bits(self.seq_state1)
        if len(zero) != len(one):
            raise LengthMismatch(f"sequence lengths differ: {len(zero)} vs {len(one)}")
        if not len(zero):
            raise ValueError("bit sequences must not be empty")
        for name, arr in (("seq_state0", zero), ("seq_state1", one)):
            arr = arr.view() if arr.flags.writeable else arr  # the caller's array stays writable
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def moves(self, start: int, n: int, state: int) -> np.ndarray:
        seq = self.seq_state1 if _as_state(state) else self.seq_state0
        length = len(seq)
        first = start % length
        if first + n <= length:
            return seq[first : first + n].copy()
        rest = first + n - length  # the rounds from the first wrap on, read from position 0
        # np.resize copies its input whole as often as it fits, so it gets no more than rest needs
        return np.concatenate((seq[first:], np.resize(seq[:rest], rest)))


def classical_strategy(player: int, sequences: BitSequenceSet) -> SequenceStrategy:
    """Strategy for one player under the shared-sequence assignment.

    Player 1 reads sequence 0 in state 0 and sequence 2 in state 1;
    player 2 reads sequence 3 in state 0 and sequence 1 in state 1.  Under
    this assignment the (0,0) rounds compare the two outermost sequences
    while every other state pair compares sequences one step apart.
    """
    if player == 1:
        return SequenceStrategy(sequences.x0, sequences.x2)
    if player == 2:
        return SequenceStrategy(sequences.x3, sequences.x1)
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
