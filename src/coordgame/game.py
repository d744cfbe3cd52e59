"""Core types and the arbiter for the two-player coordination game.

Two non-communicating players each sit in a binary state and make binary
moves.  The figure of merit is the ratio between the mismatch probability
when both players are in state 0 and the worst mismatch probability over
the remaining three state pairs.  This module defines the domain types,
the payoff functional, the match arbiter, and estimation of the four
mismatch probabilities, either from the move columns of a recorded match
or straight from a counts-only match that never holds those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Protocol

import numpy as np

__all__ = [
    "Move",
    "STATE_PAIRS",
    "MismatchProfile",
    "MatchRecords",
    "PayoffReport",
    "PlayerStrategy",
    "DegenerateProfile",
    "MissingStatePair",
    "MATCH_CHUNK_ROUNDS",
    "payoff",
    "empirical_profile",
    "match_profile",
    "run_match",
    "uniform_schedule",
    "analytic_report",
    "empirical_report",
]


class Move(IntEnum):
    """One player's move; A and B are the only options."""

    A = 0
    B = 1


#: The four joint states (player one's, player two's) in canonical order.
STATE_PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


#: Rounds per chunk of :func:`match_profile`; results do not depend on it.
#: A float64 chunk column is 64 KiB, below glibc's default 128 KiB mmap
#: threshold, so chunk temporaries are reused from the heap, not re-faulted.
MATCH_CHUNK_ROUNDS = 8_192


class DegenerateProfile(ValueError):
    """All three off-(0,0) mismatch probabilities are zero; the payoff is 0/0."""


class MissingStatePair(ValueError):
    """A state pair has no recorded rounds, so its mismatch probability is unestimable."""


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


@dataclass(frozen=True, eq=False)
class MatchRecords:
    """Column-oriented, immutable collection of the rounds of one match.

    Rounds are stored as arrays so million-round matches stay cheap; row
    k of every column is round k in schedule order.
    The columns are read-only uint8 copies of the arrays passed in, so the
    caller's arrays stay writable and later writes to them do not leak in.
    """

    states: np.ndarray  # (n, 2) uint8, one row per round
    move_one: np.ndarray  # (n,) uint8
    move_two: np.ndarray  # (n,) uint8

    def __post_init__(self) -> None:
        columns = {
            name: np.array(getattr(self, name), dtype=np.uint8)
            for name in ("states", "move_one", "move_two")
        }
        n = len(columns["move_one"])
        if columns["states"].shape != (n, 2) or columns["move_two"].shape != (n,):
            raise ValueError("mismatched record column lengths")
        for name, arr in columns.items():
            if arr.max(initial=0) > 1:
                raise ValueError(f"{name} entries must be 0 or 1")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.move_one)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchRecords):
            return NotImplemented
        return (
            np.array_equal(self.states, other.states)
            and np.array_equal(self.move_one, other.move_one)
            and np.array_equal(self.move_two, other.move_two)
        )


class PlayerStrategy(Protocol):
    """Answers move queries from the arbiter.

    ``moves`` receives only this player's own states, the round indices,
    and the per-round shared randomness that both players see.  It must
    return one move (0 for A, 1 for B) per round.  No argument holds the
    other player's state, yet on the block schedule ``round_indices // r``
    gives the state pair away.  A class attribute ``reads_shared = False``
    declares that the strategy ignores the shared stream; if both players
    do, none is drawn and ``shared`` is ``None``.  Unset, it reads as True.
    """

    reads_shared: bool

    def moves(
        self, states: np.ndarray, round_indices: np.ndarray, shared: np.ndarray | None
    ) -> np.ndarray: ...


def uniform_schedule(rounds_per_state_pair: int) -> np.ndarray:
    """Schedule with exactly ``rounds_per_state_pair`` rounds of each state pair.

    The four pairs are laid out in consecutive blocks, (0,0) first, as
    :func:`match_profile` plays them without building this array.  With
    one full block per pair of length N, a length-N shared sequence is
    walked through every position exactly once per pair, which makes
    frequency estimates of sequence-based strategies exact, not sampled.

    Returns an ``(4 * rounds_per_state_pair, 2)`` uint8 array; row k holds
    (player-one state, player-two state) for round k.
    """
    pairs = np.array(STATE_PAIRS, dtype=np.uint8)
    return np.repeat(pairs, _block_rounds(rounds_per_state_pair), axis=0)


def _block_rounds(rounds_per_state_pair: int) -> int:
    """The block length r, checked: r >= 1 and round indices 0..4r-1 fit in int64."""
    r = int(rounds_per_state_pair)
    if r < 1:
        raise ValueError("rounds_per_state_pair must be >= 1")
    if 4 * r - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"rounds_per_state_pair={r} exceeds 2**61: round indices overflow int64")
    return r


def run_match(
    strategy_one: PlayerStrategy,
    strategy_two: PlayerStrategy,
    schedule,
    seed: int,
) -> MatchRecords:
    """Play every scheduled round and record both moves.

    The arbiter queries strategy one first, then strategy two, handing
    each only its own state column plus the round indices and a shared
    random stream derived from ``seed``.  The shared stream is the only
    run-time coordination channel: both players receive identical values
    for the same round index.  Output is deterministic for fixed
    (strategies, schedule, seed).  Each strategy is queried exactly once,
    for the whole schedule.
    """
    sched = _as_schedule(schedule)
    chunks = [(0, sched[:, 0].copy(), sched[:, 1].copy())]
    ((_, moves_one, moves_two),) = _play(strategy_one, strategy_two, chunks, seed)
    return MatchRecords(states=sched, move_one=moves_one, move_two=moves_two)


def match_profile(
    strategy_one: PlayerStrategy,
    strategy_two: PlayerStrategy,
    rounds_per_state_pair: int,
    seed: int,
) -> MismatchProfile:
    """Mismatch profile of a match on ``uniform_schedule(rounds_per_state_pair)``.

    Plays the same rounds as :func:`run_match` on that schedule, with the
    same validation and shared stream, but builds neither the schedule nor
    any record: each state pair's block is walked in chunks of at most
    :data:`MATCH_CHUNK_ROUNDS` rounds of constant states, keeping one
    mismatch count per pair.  Working memory is under 1 MiB for any length,
    and time is linear in it.  Strategies whose moves depend only on their
    arguments and on streams that draw the same values split or whole (both
    shipped families do) give exactly ``empirical_profile(run_match(...))``.

    Raises:
        ValueError: if ``rounds_per_state_pair`` is below 1 or above 2**61
            (round indices would overflow int64), or on malformed moves.
    """
    r = _block_rounds(rounds_per_state_pair)
    differ = [0, 0, 0, 0]
    for start, moves_one, moves_two in _play(strategy_one, strategy_two, _block_chunks(r), seed):
        differ[start // r] += np.count_nonzero(moves_one != moves_two)
    return _profile_from_counts([(r - d, d) for d in differ])


def _block_chunks(r: int):
    """The chunks of ``uniform_schedule(r)`` for :func:`_play`; none crosses a block."""
    for k, (i, j) in enumerate(STATE_PAIRS):
        stop = (k + 1) * r
        for start in range(k * r, stop, MATCH_CHUNK_ROUNDS):
            n = min(MATCH_CHUNK_ROUNDS, stop - start)
            yield start, np.full(n, i, dtype=np.uint8), np.full(n, j, dtype=np.uint8)


def _as_schedule(schedule) -> np.ndarray:
    sched = np.asarray(schedule, dtype=np.uint8)
    if sched.ndim != 2 or sched.shape[1] != 2 or len(sched) == 0:
        raise ValueError("schedule must be a nonempty sequence of state pairs")
    if sched.max(initial=0) > 1:
        raise ValueError("schedule states must be 0 or 1")
    return sched


def _play(strategy_one, strategy_two, chunks, seed: int):
    """Yield (first round, moves one, moves two) for each chunk of consecutive rounds.

    ``chunks`` yields (first round index, player-one states, player-two
    states) in round order.  Strategy one is queried before strategy two
    in every chunk.  The shared stream (``None`` unless a player reads it)
    is one generator drawn chunk by chunk; ``Generator.random`` yields the
    same values split or whole, so no round's value depends on chunking.
    """
    reads = any(getattr(s, "reads_shared", True) for s in (strategy_one, strategy_two))
    rng = np.random.default_rng(seed)
    for start, states_one, states_two in chunks:
        n = len(states_one)
        rounds = np.arange(start, start + n, dtype=np.int64)
        shared = rng.random(n) if reads else None
        for arr in (rounds, shared) if reads else (rounds,):
            arr.setflags(write=False)
        moves_one = _as_move_array(strategy_one.moves(states_one, rounds, shared), n)
        moves_two = _as_move_array(strategy_two.moves(states_two, rounds, shared), n)
        yield start, moves_one, moves_two


def _as_move_array(moves, n: int) -> np.ndarray:
    arr = np.asarray(moves, dtype=np.uint8)
    if arr.shape != (n,):
        raise ValueError(f"strategy returned {arr.shape}, expected ({n},)")
    if arr.max(initial=0) > 1:
        raise ValueError("moves must be 0 (A) or 1 (B)")
    return arr


def empirical_profile(records: MatchRecords) -> MismatchProfile:
    """Frequency estimate of the four mismatch probabilities from match records.

    Each entry is the fraction of rounds with that state pair in which the
    two moves differed.  Plain frequencies, no smoothing.

    Raises:
        MissingStatePair: if any of the four state pairs has zero rounds.
    """
    # round counts indexed by 4*s1 + 2*s2 + (moves differ); states are 0/1
    index = records.states[:, 0] * np.uint8(4)
    index += records.states[:, 1] * np.uint8(2)
    index += records.move_one != records.move_two
    return _profile_from_counts(np.bincount(index, minlength=8).reshape(4, 2).tolist())


def _profile_from_counts(table) -> MismatchProfile:
    """Profile from (same, differ) round counts per state pair, in STATE_PAIRS order."""
    entries = {}
    for (i, j), (same, differ) in zip(STATE_PAIRS, table):
        if same + differ == 0:
            raise MissingStatePair(f"no rounds recorded for state pair ({i}, {j})")
        entries[f"q{i}{j}"] = float(differ) / (same + differ)
    return MismatchProfile(**entries)


@dataclass(frozen=True)
class PayoffReport:
    """A payoff value together with how it was obtained.

    ``mode`` is "analytic" for closed-form profiles and "empirical" for
    frequency estimates.  ``samples_per_state_pair`` and
    ``confidence_halfwidth`` are zero in analytic mode; in empirical mode
    the half-width is a 95% normal-approximation interval for the payoff
    ratio, propagated from the binomial variances of the numerator and of
    the largest denominator entry.
    """

    payoff: float
    mode: str
    profile: MismatchProfile
    samples_per_state_pair: int = 0
    confidence_halfwidth: float = 0.0


def analytic_report(profile: MismatchProfile) -> PayoffReport:
    """Payoff report for an exactly known profile."""
    return PayoffReport(payoff=payoff(profile), mode="analytic", profile=profile)


def empirical_report(profile: MismatchProfile, samples_per_state_pair: int) -> PayoffReport:
    """Payoff report for a frequency-estimated profile.

    The 95% half-width uses the delta method on the ratio q00 / qmax with
    independent binomial variances q(1-q)/n for the numerator and for the
    entry attaining the maximum.
    """
    n = int(samples_per_state_pair)
    if n < 1:
        raise ValueError("samples_per_state_pair must be >= 1 for empirical reports")
    value = payoff(profile)
    qmax = max(profile.q01, profile.q10, profile.q11)
    var_num = profile.q00 * (1.0 - profile.q00) / n
    var_den = qmax * (1.0 - qmax) / n
    var_ratio = var_num / qmax**2 + profile.q00**2 * var_den / qmax**4
    return PayoffReport(
        payoff=value,
        mode="empirical",
        profile=profile,
        samples_per_state_pair=n,
        confidence_halfwidth=1.96 * float(np.sqrt(var_ratio)),
    )
