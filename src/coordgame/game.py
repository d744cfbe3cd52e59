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
#: A float64 chunk column is 120 KiB, below glibc's default 128 KiB mmap
#: threshold, so chunk temporaries are reused from the heap, not re-faulted;
#: within that, the larger the chunk, the less fixed per-chunk cost a match pays.
MATCH_CHUNK_ROUNDS = 15 * 1024


class DegenerateProfile(ValueError):
    """All three off-(0,0) mismatch probabilities are zero; the payoff is 0/0."""


#: The bits of 1.0 as a uint64.  Compared as uint64, exactly the floats in
#: [0, 1] are at or below it: a sign bit, NaN, infinity or a larger float is above.
_ONE_BITS = np.float64(1.0).view(np.uint64)


@dataclass(frozen=True, init=False, eq=False)
class MismatchProfile:
    """The four state-dependent probabilities that the players' moves differ.

    ``q`` is one read-only float array of shape ``(4,) + S`` whose row k is
    state pair ``STATE_PAIRS[k]``: ``qij`` is the probability of different
    simultaneous moves when player one is in state ``i`` and player two in
    state ``j``.  The entries are conditional probabilities for distinct
    conditions, so they carry no normalization constraint across each other.

    The four entries are floats, or arrays of one shape S, one profile per
    entry, such as a sweep's rows.  ``q`` is a copy, so the caller's arrays
    stay writable.  ``q00``-``q11`` read its rows, as floats or read-only
    views, and two profiles are equal when their ``q`` arrays are.
    """

    q: np.ndarray

    def __init__(self, q00, q01, q10, q11) -> None:
        try:
            q = np.array((q00, q01, q10, q11), dtype=float)
        except ValueError as error:  # also raised on entries of unequal shape
            raise ValueError("profile entries must be floats, or arrays of one shape") from error
        q += 0.0  # -0.0 becomes 0.0, so no negative zero is ever reported
        if q.view(np.uint64).max(initial=0) > _ONE_BITS:  # one pass over q; NaN fails too
            bad = tuple(np.argwhere(~((q >= 0.0) & (q <= 1.0)))[0])  # in C order: the first field
            i, j = STATE_PAIRS[bad[0]]
            raise ValueError(f"q{i}{j}={float(q[bad])!r} outside [0, 1]")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        if not isinstance(other, MismatchProfile):
            return NotImplemented
        return np.array_equal(self.q, other.q)

    def _row(k: int) -> property:
        return property(lambda self: self.q[k].item() if self.q.ndim == 1 else self.q[k])

    q00, q01, q10, q11 = map(_row, range(4))
    del _row


def payoff(profile: MismatchProfile):
    """Payoff of a mismatch profile: q00 / max(q01, q10, q11), read off ``q`` whole.

    This is the one definition of the payoff.  It also takes a column
    profile, such as a sweep's, and then returns one payoff per row.

    Raises:
        DegenerateProfile: if q01 = q10 = q11 = 0 (in any row).  Both
            strategy-class bounds force q00 = 0 in that case, so the ratio
            is an uninformative 0/0 and no finite value would rank it honestly.
        ValueError: if the ratio overflows to infinity (in any row), which
            happens when the largest denominator entry is subnormal.
    """
    denom = profile.q[1:].max(axis=0)
    if np.any(denom == 0.0):
        raise DegenerateProfile(
            "payoff undefined: q01 = q10 = q11 = 0 (0/0 ratio)"
        )
    with np.errstate(over="ignore"):
        ratio = profile.q[0] / denom
    if not np.all(np.isfinite(ratio)):
        raise ValueError("payoff overflows: q00 / max(q01, q10, q11) is not finite")
    return ratio


def confidence_halfwidth(profile: MismatchProfile, samples_per_state_pair: int):
    """95% half-width of the payoff of a frequency-estimated profile.

    The delta method on the ratio q00 / qmax, with independent binomial
    variances q(1-q)/n, n = ``samples_per_state_pair``, for the numerator
    and for the entry attaining the maximum.  Like :func:`payoff`, it reads
    ``q`` whole: a float for a single profile, one half-width per row for
    a column profile.

    Raises:
        ValueError: if ``samples_per_state_pair`` is below 1, or as
            :func:`payoff` does.
        DegenerateProfile: as :func:`payoff` does.
    """
    n = int(samples_per_state_pair)
    if n < 1:
        raise ValueError("samples_per_state_pair must be >= 1")
    payoff(profile)  # only for its checks
    q00, qmax = profile.q[0], profile.q[1:].max(axis=0)
    var_num = q00 * (1.0 - q00) / n
    var_den = qmax * (1.0 - qmax) / n
    var_ratio = var_num / qmax**2 + q00**2 * var_den / qmax**4
    return 1.96 * np.sqrt(var_ratio)


class PlayerStrategy(Protocol):
    """Answers move queries from the arbiter.

    ``moves(start, n, state)`` gets three plain ints: the first round, the
    round count and this player's own state, 0 or 1, which holds for all
    the rounds ``start`` to ``start + n - 1``.  It returns one move (0 for
    A, 1 for B) per round.  It brings its own randomness: the arbiter hands
    out none.  No argument holds the other player's state, yet on the
    block schedule ``start // r`` is the state pair.
    """

    def moves(self, start: int, n: int, state: int) -> np.ndarray: ...


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

    It checks r and returns one generator that walks the blocks in order,
    in chunks of at most :data:`MATCH_CHUNK_ROUNDS` rounds.  Per chunk,
    strategy one and then strategy two are asked ``moves(start, n, state)``:
    the chunk's first round and round count, and only their own state; the
    arbiter draws no randomness.
    Each chunk yields (first round index, moves one, moves two), the moves
    as uint8 columns, 0 for A.  Output is deterministic for fixed strategies
    and r, and the chunking changes no move of a strategy whose moves depend
    only on its arguments and on streams that draw the same values split or
    whole, as both shipped families do.

    Raises:
        ValueError: when called, before any strategy is queried, if
            ``rounds_per_state_pair`` is below 1 or above 2**61, where the
            last round index no longer fits the int64 array that a strategy
            may build of its rounds; during iteration, on malformed moves.
    """
    return _play(strategy_one, strategy_two, _checked_rounds(rounds_per_state_pair))


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
    differ = np.zeros(4, dtype=np.int64)
    for start, moves_one, moves_two in chunks:
        differ[start // r] += np.count_nonzero(moves_one != moves_two)
    return MismatchProfile(*(differ / r))


def _checked_rounds(rounds_per_state_pair) -> int:
    """``rounds_per_state_pair`` as an int r, after :func:`play_match`'s two checks.

    Every play of the block schedule calls it before it draws anything.

    Raises:
        ValueError: if r is below 1, or above 2**61, where the last round
            index 4r - 1 no longer fits an int64.
    """
    r = int(rounds_per_state_pair)
    if r < 1:
        raise ValueError("rounds_per_state_pair must be >= 1")
    if 4 * r - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"rounds_per_state_pair={r} exceeds 2**61: round indices overflow int64")
    return r


def _block_chunks(r: int):
    """Walk the block schedule: (state-pair index k, first round, round count) per chunk, in order.

    Each state pair ``STATE_PAIRS[k]`` gets one block of r rounds, walked
    in chunks of at most ``MATCH_CHUNK_ROUNDS`` rounds, so no chunk crosses
    a block.
    """
    for k in range(len(STATE_PAIRS)):
        stop = (k + 1) * r
        for start in range(k * r, stop, MATCH_CHUNK_ROUNDS):
            yield k, start, min(MATCH_CHUNK_ROUNDS, stop - start)


def _play(strategy_one, strategy_two, r: int):
    """Play the block schedule's chunks: (first round, moves one, moves two) per chunk, in order.

    Strategy one is queried before strategy two in every chunk.
    """
    for k, start, n in _block_chunks(r):
        state_one, state_two = STATE_PAIRS[k]
        moves_one = _as_move_array(strategy_one.moves(start, n, state_one), n)
        moves_two = _as_move_array(strategy_two.moves(start, n, state_two), n)
        yield start, moves_one, moves_two


def _as_move_array(moves, n: int) -> np.ndarray:
    arr = np.asarray(moves)
    if arr.shape != (n,):
        raise ValueError(f"strategy returned {arr.shape}, expected ({n},)")
    return _as_binary(arr, "moves must be 0 (A) or 1 (B)")


def _as_state(state) -> int:
    """``state`` as the int 0 or 1; ``ValueError`` on anything else, such as 2, -1, 0.5 or NaN."""
    if state == 0 or state == 1:
        return int(state)
    raise ValueError("states must be 0 or 1")


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
