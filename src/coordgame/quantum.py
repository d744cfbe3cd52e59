"""Entanglement-assisted strategies built on shared spin singlets.

Each round consumes one singlet pair.  A player measures its qubit's spin
along a direction chosen by its own state alone and moves A on a positive
projection, B on a negative one.  For measurement directions separated by
angle theta the singlet's joint outcome law is
P(s, t) = (1 - s*t*cos(theta)) / 4, so the probability that the two moves
differ is (1 + cos(theta)) / 2.  With player two's directions offset by
pi, the four mismatch probabilities become small simultaneously while the
(0,0) entry stays three measurement steps wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .game import STATE_PAIRS, MismatchProfile, _as_state, _block_chunks, _checked_rounds

__all__ = [
    "GeneralAnglePlan",
    "mismatch_probability",
    "quantum_profile",
    "general_quantum_profile",
    "quantum_player_strategy",
    "quantum_match_profile",
]


@dataclass(frozen=True)
class GeneralAnglePlan:
    """Arbitrary per-state measurement directions for both players.

    ``a0``/``a1`` are player one's directions in states 0/1 and
    ``b0``/``b1`` player two's, all in radians in the XY plane.  Any pi
    offsets are part of the stored values.  The angles are floats, or
    arrays holding one plan per entry; a float may stand beside them when
    every pair (a_i, b_j) holds an array, as ``equally_spaced``'s a0 = 0
    does.
    """

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b0", "b1"):
            angle = getattr(self, name)
            if not (np.isfinite(angle).all() if getattr(angle, "ndim", 0) else math.isfinite(angle)):
                raise ValueError(f"angle {name} must be finite")

    @classmethod
    def equally_spaced(cls, delta) -> GeneralAnglePlan:
        """The paper's plan: measurement angles 0, delta, 2*delta, 3*delta.

        Player one uses angle 0 in state 0 and 2*delta in state 1; player
        two uses pi + 3*delta in state 0 and pi + delta in state 1.  The
        directions for state pair (0,0) then differ by pi - 3*delta and
        every other pair by pi +/- delta.  An array of spacings gives one
        plan per entry.  A non-finite ``delta``, or one so large that an
        angle overflows, is rejected like any non-finite angle.
        """
        delta = float(delta) if np.ndim(delta) == 0 else np.asarray(delta, dtype=float)
        with np.errstate(over="ignore"):
            return cls(0.0, 2.0 * delta, math.pi + 3.0 * delta, math.pi + delta)


def mismatch_probability(dir_one, dir_two):
    """Probability the two moves differ for the given measurement directions.

    For the singlet, P(moves differ) = (1 + cos(dir_two - dir_one)) / 2,
    computed as cos((dir_two - dir_one) / 2)**2 to stay accurate when the
    directions are nearly opposite and the probability is tiny.  It
    broadcasts over arrays and returns a numpy scalar for scalar input;
    :func:`general_quantum_profile` is its one caller in the package.  The
    square is a product because numpy squares a scalar with libm ``pow``,
    which can differ from an array's square in the last place.
    """
    half_cos = np.cos(0.5 * (dir_two - dir_one))
    return half_cos * half_cos


def quantum_profile(delta) -> MismatchProfile:
    """Mismatch profile of the equally-spaced plan: ((1-cos 3d)/2, (1-cos d)/2, ...).

    An array of spacings gives a column profile, one row per spacing.
    """
    return general_quantum_profile(GeneralAnglePlan.equally_spaced(delta))


def general_quantum_profile(plan: GeneralAnglePlan) -> MismatchProfile:
    """Mismatch profile for per-state measurement directions: q_ij = law(a_i, b_j).

    This is the one place the singlet law is tabulated over a plan, one call
    per state pair; a plan of column angles gives a column profile.
    """
    a, b = (plan.a0, plan.a1), (plan.b0, plan.b1)
    return MismatchProfile(*[mismatch_probability(a[i], b[j]) for i, j in STATE_PAIRS])


class _SingletSource:
    """Produces correlated move pairs for the two coupled strategies.

    Player one's measurement of a chunk of rounds draws the per-round
    randomness and registers its state; player two's measurement of the
    same rounds then completes the joint sampling.  Each strategy still
    chooses its direction from its own state alone, and player one's move
    is a bare coin, independent of every direction.

    Moves are bits (1 for a negative projection, i.e. move B).  This is
    the one sampling rule: from uniforms u and v, ``move_one = u >= 0.5``
    and the moves differ when ``v >= p_same[2*i + j]`` (:meth:`_differ`),
    where player two's outcome equals player one's with probability
    ``1 - q_ij`` from the plan's profile, tabulated once per plan, so a
    chunk compares v against one threshold.  The u and v coins come from
    two independent children of ``SeedSequence(seed)``, each drawn as one
    stream, so the moves do not depend on how rounds are split into
    chunks.  Either measurement raises ``ValueError`` on a state other
    than 0 or 1, before it draws.

    Whether the moves differ reads v alone, so :meth:`count_mismatches`
    counts a chunk's mismatches from the v stream without drawing u; a
    source either counts or measures, never both.
    """

    def __init__(self, plan: GeneralAnglePlan, seed: int):
        self._p_same = 1.0 - general_quantum_profile(plan).q
        children = np.random.SeedSequence(int(seed)).spawn(2)
        self._rng_u, self._rng_v = map(np.random.default_rng, children)
        self._pending = None

    def measure_one(self, start: int, n: int, state: int) -> np.ndarray:
        state = _as_state(state)
        u, v = self._rng_u.random(n), self._rng_v.random(n)
        move_one = u >= 0.5
        self._pending = (start, n, state, move_one, v)
        moves = move_one.view(np.uint8)
        moves.setflags(write=False)  # shares memory with the pending chunk
        return moves

    def measure_two(self, start: int, n: int, state: int) -> np.ndarray:
        if self._pending is None:
            raise RuntimeError("player one must measure each singlet chunk first")
        start_one, n_one, state_one, move_one, v = self._pending
        self._pending = None
        state = _as_state(state)
        if (start, n) != (start_one, n_one):
            raise RuntimeError("both players must consume the same singlet rounds")
        differ = self._differ(v, 2 * state_one + state)
        differ ^= move_one
        return differ.view(np.uint8)

    def count_mismatches(self, n: int, pair: int) -> int:
        """Rounds among the next n of state pair ``STATE_PAIRS[pair]`` whose moves differ, from v alone."""
        return np.count_nonzero(self._differ(self._rng_v.random(n), pair))

    def _differ(self, v: np.ndarray, pair: int) -> np.ndarray:
        """The sampling rule: the two moves differ where ``v >= p_same[pair]``, ``pair = 2*i + j``."""
        return v >= self._p_same[pair]


@dataclass(frozen=True)
class _EntangledPlayer:
    """One side of a singlet source: ``moves`` is that side's measurement."""

    moves: Callable[[int, int, int], np.ndarray]


def quantum_player_strategy(
    plan: GeneralAnglePlan, seed: int
) -> tuple[_EntangledPlayer, _EntangledPlayer]:
    """Coupled strategy pair sharing one singlet per round.

    The returned strategies are bound to a common entanglement source and
    must be queried in player order, which the match arbiter does.  Their
    correlation comes entirely from the source's singlet randomness,
    seeded by ``seed``: fixed (plan, seed, rounds per pair) reproduces a
    match exactly, however its rounds are split into chunks.  A match that
    only counts mismatches is :func:`quantum_match_profile`.
    """
    source = _SingletSource(plan, seed)
    return _EntangledPlayer(source.measure_one), _EntangledPlayer(source.measure_two)


def quantum_match_profile(plan: GeneralAnglePlan, seed: int, rounds_per_state_pair: int) -> MismatchProfile:
    """``match_profile(*quantum_player_strategy(plan, seed), r)``, bit for bit, from half the coins.

    Player one's move is a fair coin u that no direction touches, and the
    two moves differ exactly where player two's coin v reaches the state
    pair's threshold, so no mismatch count reads u.  This count walks the
    same block schedule in the same chunks, draws only the v stream and
    builds no players; its working memory is under 1 MiB for any r.

    Raises:
        ValueError: as ``quantum_player_strategy(plan, seed)`` does, then
            as :func:`~coordgame.game.play_match` does, both before any draw.
    """
    source = _SingletSource(plan, seed)
    r = _checked_rounds(rounds_per_state_pair)
    differ = np.zeros(4, dtype=np.int64)
    for k, _, n in _block_chunks(r):
        differ[k] += source.count_mismatches(n, k)
    return MismatchProfile(*(differ / r))
