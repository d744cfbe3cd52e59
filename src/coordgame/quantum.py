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

from .game import MismatchProfile, _as_binary

__all__ = [
    "GeneralAnglePlan",
    "mismatch_probability",
    "quantum_profile",
    "general_quantum_profile",
    "quantum_player_strategy",
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

    def mismatch_angle(self, i: int, j: int) -> float:
        """Direction difference b_j - a_i for state pair (i, j).

        These four differences are linearly dependent:
        angle(0,0) = angle(0,1) + angle(1,0) - angle(1,1) identically.
        """
        return (self.b0 if j == 0 else self.b1) - (self.a0 if i == 0 else self.a1)


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

    This is the one place the singlet law is tabulated over a plan; a plan
    of column angles gives a column profile.
    """
    return MismatchProfile(
        q00=mismatch_probability(plan.a0, plan.b0),
        q01=mismatch_probability(plan.a0, plan.b1),
        q10=mismatch_probability(plan.a1, plan.b0),
        q11=mismatch_probability(plan.a1, plan.b1),
    )


class _SingletSource:
    """Produces correlated move pairs for the two coupled strategies.

    Player one's measurement draws the per-round randomness and registers
    its states; player two's measurement for the same rounds then
    completes the joint sampling.  Each strategy still chooses its
    direction from its own state alone, and player one's move is a bare
    coin, independent of every direction.

    Moves are bits (1 for a negative projection, i.e. move B).  This is
    the one sampling rule: from uniforms u and v, ``move_one = u >= 0.5``
    and the moves differ when ``v >= p_same``, where player two's outcome
    equals player one's with probability ``p_same[2*i + j] = 1 - q_ij`` from
    the plan's profile, tabulated once per plan.  A batch in which each
    player's states are all equal, as every chunk of the block schedule
    is, compares v against that one entry; any other batch looks up its
    entry per round.  The u and v coins come from two independent
    children of ``SeedSequence(seed)``, each drawn as one stream, so the
    moves do not depend on how rounds are batched.
    """

    def __init__(self, plan: GeneralAnglePlan, seed: int):
        self._p_same = 1.0 - general_quantum_profile(plan).as_array()
        children = np.random.SeedSequence(int(seed)).spawn(2)
        self._rng_u, self._rng_v = map(np.random.default_rng, children)
        self._pending = None

    def measure_one(self, states: np.ndarray, round_indices: np.ndarray) -> np.ndarray:
        states, round_indices = _batch(states, round_indices)
        u, v = self._rng_u.random(len(states)), self._rng_v.random(len(states))
        move_one = u >= 0.5
        self._pending = (_frozen(round_indices), np.array(states), move_one, v)
        moves = move_one.view(np.uint8)
        moves.setflags(write=False)  # shares memory with the pending batch
        return moves

    def measure_two(self, states: np.ndarray, round_indices: np.ndarray) -> np.ndarray:
        if self._pending is None:
            raise RuntimeError("player one must measure each singlet batch first")
        rounds_one, states_one, move_one, v = self._pending
        self._pending = None
        states, round_indices = _batch(states, round_indices)
        if round_indices is not rounds_one and not np.array_equal(rounds_one, round_indices):
            raise RuntimeError("both players must consume the same singlet rounds")
        # constant columns read as ints, so take returns one threshold for the whole batch
        pairs = _state_or_column(states_one) * 2 + _state_or_column(states)
        differ = v >= self._p_same.take(pairs)
        differ ^= move_one
        return differ.view(np.uint8)


def _batch(states, round_indices) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as arrays; ``ValueError`` unless they are one column each, of one length."""
    states, round_indices = np.asarray(states), np.asarray(round_indices)
    if states.ndim != 1 or states.shape != round_indices.shape:
        raise ValueError(
            f"states {states.shape} and round indices {round_indices.shape} must be columns of one length"
        )
    return states, round_indices


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself when nothing can write to it, else a copy.

    A read-only array that owns its memory, like the arbiter's round
    indices, changes only if its owner turns writing back on; holding it
    saves a copy and lets player two's check pass on identity.
    """
    return arr if not arr.flags.writeable and arr.base is None else arr.copy()


def _state_or_column(states: np.ndarray) -> int | np.ndarray:
    """The batch's one state as an int when all are equal, else the uint8 column.

    ``ValueError`` on a state other than 0 or 1; an empty batch reads as 0.
    A column of zeros needs no other check, so it costs one count.
    """
    ones = np.count_nonzero(states)
    if ones == 0:
        return 0
    states = _as_binary(states, "singlet measurement states must be 0 or 1")
    return states if ones < len(states) else 1


@dataclass(frozen=True)
class _EntangledPlayer:
    """One side of a singlet source: ``moves`` is that side's measurement."""

    moves: Callable[[np.ndarray, np.ndarray], np.ndarray]


def quantum_player_strategy(
    plan: GeneralAnglePlan, seed: int
) -> tuple[_EntangledPlayer, _EntangledPlayer]:
    """Coupled strategy pair sharing one singlet per round.

    The returned strategies are bound to a common entanglement source and
    must be queried in player order, which the match arbiter does.  Their
    correlation comes entirely from the source's singlet randomness,
    seeded by ``seed``: fixed (plan, seed, rounds per pair) reproduces a
    match exactly, however its rounds are split into batches.
    """
    source = _SingletSource(plan, seed)
    return _EntangledPlayer(source.measure_one), _EntangledPlayer(source.measure_two)
