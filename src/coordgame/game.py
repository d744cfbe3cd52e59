"""Core types and the arbiter for the two-player coordination game.

Two non-communicating players each sit in a binary state and make binary
moves.  The figure of merit is the ratio between the mismatch probability
when both players are in state 0 and the worst mismatch probability over
the remaining three state pairs.  This module defines the domain types,
the payoff functional, the match arbiter, which plays every state pair
equally often in chunks of rounds, and the frequency estimate of the four
mismatch probabilities from such a match, with its payoff's 95% interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol

import numpy as np

__all__ = [
    "STATE_PAIRS",
    "MismatchProfile",
    "PlayerStrategy",
    "DegenerateProfile",
    "payoff",
    "confidence_halfwidth",
    "match_profile",
    "play_match",
]


#: The four joint states (player one's, player two's) in canonical order.
STATE_PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


#: Rounds per chunk of :func:`play_match`; no move depends on it.
#: A float64 chunk column is 64 KiB, below glibc's default 128 KiB mmap
#: threshold, so chunk temporaries are reused from the heap, not re-faulted.
MATCH_CHUNK_ROUNDS = 8_192


class DegenerateProfile(ValueError):
    """All three off-(0,0) mismatch probabilities are zero; the payoff is 0/0."""


@dataclass(frozen=True)
class MismatchProfile:
    """The four state-dependent probabilities that the players' moves differ.

    ``qij`` is the probability of different simultaneous moves when player
    one is in state ``i`` and player two in state ``j``.  The entries are
    conditional probabilities for distinct conditions, so they carry no
    normalization constraint across each other.

    The fields are either four floats or four arrays of one shape, one
    profile per entry, such as a sweep's rows.  Arrays are stored as
    read-only float copies, so the caller's arrays stay writable and later
    writes to them do not leak in.
    """

    q00: float
    q01: float
    q10: float
    q11: float

    def __post_init__(self) -> None:
        names = ("q00", "q01", "q10", "q11")
        columns = any(getattr(getattr(self, name), "ndim", 0) for name in names)
        for name in names:
            if columns:
                v = np.array(getattr(self, name), dtype=float)
                v.setflags(write=False)
                outside = v[~((v >= 0.0) & (v <= 1.0))]  # NaN fails both comparisons
            else:
                v = float(getattr(self, name))
                outside = [] if 0.0 <= v <= 1.0 else [v]
            if len(outside):
                raise ValueError(f"{name}={float(outside[0])!r} outside [0, 1]")
            object.__setattr__(self, name, v)
        if columns and len({getattr(self, name).shape for name in names}) != 1:
            raise ValueError("profile columns must all have one shape")

    def entry(self, i: int, j: int) -> float:
        """Mismatch probability for player states (i, j)."""
        return getattr(self, f"q{int(i)}{int(j)}")

    def as_array(self) -> np.ndarray:
        """Entries stacked in (q00, q01, q10, q11) order: length 4, or 4 by the column shape."""
        return np.array([self.q00, self.q01, self.q10, self.q11])


def payoff(profile: MismatchProfile):
    """Payoff of a mismatch profile: q00 / max(q01, q10, q11).

    This is the one definition of the payoff.  It also takes any profile
    whose q fields are equal-length arrays, such as a sweep's, and then
    returns one payoff per row.

    Raises:
        DegenerateProfile: if q01 = q10 = q11 = 0 (in any row).  Both
            strategy-class bounds force q00 = 0 in that case, so the ratio
            is an uninformative 0/0 and no finite value would rank it honestly.
        ValueError: if the ratio overflows to infinity (in any row), which
            happens when the largest denominator entry is subnormal.
    """
    denom = np.maximum(np.maximum(profile.q01, profile.q10), profile.q11)
    if np.any(denom == 0.0):
        raise DegenerateProfile(
            "payoff undefined: q01 = q10 = q11 = 0 (0/0 ratio)"
        )
    with np.errstate(over="ignore"):
        ratio = profile.q00 / denom
    if not np.all(np.isfinite(ratio)):
        raise ValueError("payoff overflows: q00 / max(q01, q10, q11) is not finite")
    return ratio


def confidence_halfwidth(profile: MismatchProfile, samples_per_state_pair: int) -> float:
    """95% half-width of the payoff of a frequency-estimated profile.

    The delta method on the ratio q00 / qmax, with independent binomial
    variances q(1-q)/n, n = ``samples_per_state_pair``, for the numerator
    and for the entry attaining the maximum.

    Raises:
        ValueError: if ``samples_per_state_pair`` is below 1, or as
            :func:`payoff` does.
        DegenerateProfile: as :func:`payoff` does.
    """
    n = int(samples_per_state_pair)
    if n < 1:
        raise ValueError("samples_per_state_pair must be >= 1")
    payoff(profile)  # only for its checks
    qmax = max(profile.q01, profile.q10, profile.q11)
    var_num = profile.q00 * (1.0 - profile.q00) / n
    var_den = qmax * (1.0 - qmax) / n
    var_ratio = var_num / qmax**2 + profile.q00**2 * var_den / qmax**4
    return 1.96 * float(np.sqrt(var_ratio))


class PlayerStrategy(Protocol):
    """Answers move queries from the arbiter.

    ``moves`` receives only this player's own states, a read-only uint8
    column, and a chunk's round indices, consecutive read-only int64, and
    returns one move (0 for A, 1 for B) per round.  It may rely on
    consecutive indices for speed but must answer any.  It brings its own
    randomness: the arbiter hands out none.  No argument holds the other
    player's state, yet on the block schedule ``round_indices // r`` gives
    the state pair away.
    """

    def moves(self, states: np.ndarray, round_indices: np.ndarray) -> np.ndarray: ...


def play_match(
    strategy_one: PlayerStrategy,
    strategy_two: PlayerStrategy,
    rounds_per_state_pair: int,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Play a match on the block schedule, yielding each chunk's moves as played.

    The block schedule plays each state pair ``r = rounds_per_state_pair``
    times in one block, (0,0) first, so round k has state pair
    ``STATE_PAIRS[k // r]``.  With r equal to the length N of a shared
    sequence, each pair walks the sequence through every position exactly
    once, which makes frequency estimates of sequence-based strategies
    exact, not sampled.

    Each block is played in order, in chunks of at most
    :data:`MATCH_CHUNK_ROUNDS` rounds.  Per chunk, strategy one and then
    strategy two receive only their own states, a read-only uint8 column,
    and the chunk's round indices, consecutive read-only int64; the
    arbiter draws no randomness.
    Each chunk yields (first round index, moves one, moves two), the moves
    as uint8 columns, 0 for A.  Output is deterministic for fixed strategies
    and r, and the chunking changes no move of a strategy whose moves depend
    only on its arguments and on streams that draw the same values split or
    whole, as both shipped families do.

    Raises:
        ValueError: when called, before any strategy is queried, if
            ``rounds_per_state_pair`` is below 1 or above 2**61 (round
            indices would overflow int64); during iteration, on malformed
            moves.
    """
    r = int(rounds_per_state_pair)
    if r < 1:
        raise ValueError("rounds_per_state_pair must be >= 1")
    if 4 * r - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"rounds_per_state_pair={r} exceeds 2**61: round indices overflow int64")
    return _play(strategy_one, strategy_two, _block_chunks(r))


def match_profile(
    strategy_one: PlayerStrategy,
    strategy_two: PlayerStrategy,
    rounds_per_state_pair: int,
) -> MismatchProfile:
    """Mismatch profile of :func:`play_match` with the same arguments.

    Each entry is the fraction of its state pair's r rounds in which the
    two moves differed: plain frequencies, no smoothing.  Only one
    mismatch count per pair is kept, so working memory is under 1 MiB for
    any length, and time is linear in it.

    Raises:
        ValueError: as :func:`play_match` does.
    """
    chunks = play_match(strategy_one, strategy_two, rounds_per_state_pair)
    r = int(rounds_per_state_pair)
    differ = [0, 0, 0, 0]
    for start, moves_one, moves_two in chunks:
        differ[start // r] += np.count_nonzero(moves_one != moves_two)
    return MismatchProfile(*(float(d) / r for d in differ))


def _block_chunks(r: int):
    """The block schedule's chunks for :func:`_play`; none crosses a block.

    One read-only column of each state is built per match, and every
    chunk gets slices of them.
    """
    columns = np.zeros((2, min(r, MATCH_CHUNK_ROUNDS)), dtype=np.uint8)
    columns[1] = 1  # row s holds state s
    columns.setflags(write=False)
    for k, (i, j) in enumerate(STATE_PAIRS):
        stop = (k + 1) * r
        for start in range(k * r, stop, MATCH_CHUNK_ROUNDS):
            n = min(MATCH_CHUNK_ROUNDS, stop - start)
            yield start, columns[i, :n], columns[j, :n]


def _play(strategy_one, strategy_two, chunks):
    """Yield (first round, moves one, moves two) for each chunk of consecutive rounds.

    ``chunks`` yields (first round index, player-one states, player-two
    states) in round order.  Strategy one is queried before strategy two
    in every chunk, and both get the same read-only round indices.
    """
    for start, states_one, states_two in chunks:
        n = len(states_one)
        rounds = np.arange(start, start + n, dtype=np.int64)
        rounds.setflags(write=False)
        moves_one = _as_move_array(strategy_one.moves(states_one, rounds), n)
        moves_two = _as_move_array(strategy_two.moves(states_two, rounds), n)
        yield start, moves_one, moves_two


def _as_move_array(moves, n: int) -> np.ndarray:
    arr = np.asarray(moves)
    if arr.shape != (n,):
        raise ValueError(f"strategy returned {arr.shape}, expected ({n},)")
    return _as_binary(arr, "moves must be 0 (A) or 1 (B)")


def _as_binary(arr: np.ndarray, message: str) -> np.ndarray:
    """``arr`` as uint8 0s and 1s; ``ValueError(message)`` on any other value."""
    if arr.dtype == np.uint8 or arr.dtype == np.bool_:
        arr = arr.astype(np.uint8, copy=False)
        valid = arr.max(initial=0) <= 1
    else:
        # compared before any cast, which would wrap 256 to 0, truncate 0.7 to 0 and warn on NaN
        ones = arr == 1
        valid = (ones | (arr == 0)).all()
        arr = ones.view(np.uint8)
    if not valid:
        raise ValueError(message)
    return arr
