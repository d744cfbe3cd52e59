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


#: Rounds played per chunk by :func:`match_profile`.  It bounds the
#: working memory of a counts-only match to a few MiB whatever its length;
#: results do not depend on it.
MATCH_CHUNK_ROUNDS = 65_536


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
    return one move (0 for A, 1 for B) per round.  A strategy never sees
    the other player's state.
    """

    def moves(
        self, states: np.ndarray, round_indices: np.ndarray, shared: np.ndarray
    ) -> np.ndarray: ...


def uniform_schedule(rounds_per_state_pair: int) -> np.ndarray:
    """Schedule with exactly ``rounds_per_state_pair`` rounds of each state pair.

    The four pairs are laid out in consecutive blocks, (0,0) first.  Block
    layout means a schedule with one full block per pair of length N walks
    a length-N shared sequence through every position exactly once per
    pair, which makes frequency estimates of sequence-based strategies
    exact rather than sampled.

    Returns an ``(4 * rounds_per_state_pair, 2)`` uint8 array; row k holds
    (player-one state, player-two state) for round k.
    """
    r = int(rounds_per_state_pair)
    if r < 1:
        raise ValueError("rounds_per_state_pair must be >= 1")
    pairs = np.array(STATE_PAIRS, dtype=np.uint8)
    return np.repeat(pairs, r, axis=0)


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
    ((_, moves_one, moves_two),) = _play(strategy_one, strategy_two, sched, seed, len(sched))
    return MatchRecords(states=sched, move_one=moves_one, move_two=moves_two)


def match_profile(
    strategy_one: PlayerStrategy,
    strategy_two: PlayerStrategy,
    schedule,
    seed: int,
) -> MismatchProfile:
    """Mismatch profile of a match, without recording its rounds.

    Plays the same rounds as :func:`run_match`, with the same validation
    and the same shared stream, but walks the schedule in chunks of
    :data:`MATCH_CHUNK_ROUNDS` rounds and keeps only the per-state-pair
    counts, so working memory beyond the schedule stays bounded for any
    match length.  Strategies
    whose moves depend only on their arguments and on streams that draw
    the same values split or whole (both shipped families do) give
    exactly ``empirical_profile(run_match(...))``.

    Raises:
        MissingStatePair: if the schedule lacks one of the four state pairs.
    """
    sched = _as_schedule(schedule)
    counts = np.zeros(8, dtype=np.int64)
    for chunk in _play(strategy_one, strategy_two, sched, seed, MATCH_CHUNK_ROUNDS):
        counts += _tally(*chunk)
    return _profile_from_counts(counts)


def _as_schedule(schedule) -> np.ndarray:
    sched = np.asarray(schedule, dtype=np.uint8)
    if sched.ndim != 2 or sched.shape[1] != 2 or len(sched) == 0:
        raise ValueError("schedule must be a nonempty sequence of state pairs")
    if sched.max(initial=0) > 1:
        raise ValueError("schedule states must be 0 or 1")
    return sched


def _play(strategy_one, strategy_two, sched: np.ndarray, seed: int, chunk: int):
    """Yield (states, moves one, moves two) for consecutive chunks of rounds.

    Strategy one is queried before strategy two in every chunk.  The
    shared stream comes from one generator drawn chunk by chunk;
    ``Generator.random`` yields the same values split or whole, so every
    round sees the same shared value whatever the chunk size.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, len(sched), chunk):
        stop = min(start + chunk, len(sched))
        rounds = np.arange(start, stop, dtype=np.int64)
        shared = rng.random(stop - start)
        for arr in (rounds, shared):
            arr.setflags(write=False)
        states = sched[start:stop]
        moves_one = strategy_one.moves(states[:, 0].copy(), rounds, shared)
        moves_one = _as_move_array(moves_one, stop - start)
        moves_two = strategy_two.moves(states[:, 1].copy(), rounds, shared)
        moves_two = _as_move_array(moves_two, stop - start)
        yield states, moves_one, moves_two


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
    return _profile_from_counts(_tally(records.states, records.move_one, records.move_two))


def _tally(states: np.ndarray, move_one: np.ndarray, move_two: np.ndarray) -> np.ndarray:
    """Round counts indexed by 4*s1 + 2*s2 + (moves differ); states must be 0/1."""
    index = states[:, 0] * np.uint8(4)
    index += states[:, 1] * np.uint8(2)
    index += move_one != move_two
    return np.bincount(index, minlength=8)


def _profile_from_counts(counts: np.ndarray) -> MismatchProfile:
    """Profile from the 8 tallies of :func:`_tally`: differ / total per state pair."""
    table = counts.reshape(4, 2)
    entries = {}
    for (i, j), (same, differ) in zip(STATE_PAIRS, table.tolist()):
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
