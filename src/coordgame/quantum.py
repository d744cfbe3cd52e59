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

import numpy as np

from .game import MismatchProfile

__all__ = [
    "GeneralAnglePlan",
    "JointOutcomeCounts",
    "SingletSampler",
    "mismatch_probability",
    "quantum_profile",
    "general_quantum_profile",
    "sample_joint_outcomes",
    "quantum_player_strategy",
]


@dataclass(frozen=True)
class GeneralAnglePlan:
    """Arbitrary per-state measurement directions for both players.

    ``a0``/``a1`` are player one's directions in states 0/1 and
    ``b0``/``b1`` player two's, all in radians in the XY plane.  Any pi
    offsets are part of the stored values.
    """

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self) -> None:
        for name in ("a0", "a1", "b0", "b1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"angle {name} must be finite")

    @classmethod
    def equally_spaced(cls, delta: float) -> GeneralAnglePlan:
        """The paper's plan: measurement angles 0, delta, 2*delta, 3*delta.

        Player one uses angle 0 in state 0 and 2*delta in state 1; player
        two uses pi + 3*delta in state 0 and pi + delta in state 1.  The
        directions for state pair (0,0) then differ by pi - 3*delta and
        every other pair by pi +/- delta.  A non-finite ``delta`` is
        rejected like any non-finite angle.
        """
        return cls(*_equally_spaced_angles(delta))

    def mismatch_angle(self, i: int, j: int) -> float:
        """Direction difference b_j - a_i for state pair (i, j).

        These four differences are linearly dependent:
        angle(0,0) = angle(0,1) + angle(1,0) - angle(1,1) identically.
        """
        return (self.b0 if j == 0 else self.b1) - (self.a0 if i == 0 else self.a1)


def _equally_spaced_angles(delta):
    """The paper's directions (a0, a1, b0, b1) for spacing ``delta``.

    Written once for :meth:`GeneralAnglePlan.equally_spaced` and the
    payoff sweep; it broadcasts over an array of spacings.
    """
    return 0.0, 2.0 * delta, math.pi + 3.0 * delta, math.pi + delta


def mismatch_probability(dir_one, dir_two):
    """Probability the two moves differ for the given measurement directions.

    For the singlet, P(moves differ) = (1 + cos(dir_two - dir_one)) / 2,
    computed as cos((dir_two - dir_one) / 2)**2 to stay accurate when the
    directions are nearly opposite and the probability is tiny.  This is
    the one place the singlet law is evaluated; it broadcasts over arrays
    and returns a numpy scalar for scalar input.  The square is a product
    because numpy squares a scalar with libm ``pow``, which can differ
    from an array's square in the last place.
    """
    half_cos = np.cos(0.5 * (dir_two - dir_one))
    return half_cos * half_cos


def quantum_profile(delta: float) -> MismatchProfile:
    """Mismatch profile of the equally-spaced plan: ((1-cos 3d)/2, (1-cos d)/2, ...)."""
    return general_quantum_profile(GeneralAnglePlan.equally_spaced(delta))


def general_quantum_profile(plan: GeneralAnglePlan) -> MismatchProfile:
    """Mismatch profile for arbitrary per-state measurement directions."""
    return MismatchProfile(
        q00=float(mismatch_probability(plan.a0, plan.b0)),
        q01=float(mismatch_probability(plan.a0, plan.b1)),
        q10=float(mismatch_probability(plan.a1, plan.b0)),
        q11=float(mismatch_probability(plan.a1, plan.b1)),
    )


class SingletSampler:
    """Seeded random streams feeding singlet measurements.

    The streams are stateful: every draw consumes fresh randomness, and
    the full sequence of draws is deterministic for a fixed seed.  The
    outcome coins and the correlation coins come from two independent
    children of ``SeedSequence(seed)``, so ``draw(a)`` followed by
    ``draw(b)`` returns the same values as one ``draw(a + b)``: results do
    not depend on how a match is split into batches.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng_u, self._rng_v = (
            np.random.default_rng(child)
            for child in np.random.SeedSequence(self.seed).spawn(2)
        )

    def draw(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """One pair of uniform streams: player one's outcome coin and the
        conditional-correlation coin, m values each."""
        return self._rng_u.random(m), self._rng_v.random(m)


@dataclass(frozen=True)
class JointOutcomeCounts:
    """Counts of the four (player one, player two) outcome sign pairs."""

    plus_plus: int
    plus_minus: int
    minus_plus: int
    minus_minus: int
    total: int

    def __post_init__(self) -> None:
        parts = self.plus_plus + self.plus_minus + self.minus_plus + self.minus_minus
        if parts != self.total:
            raise ValueError(f"outcome counts sum to {parts}, total says {self.total}")

    @property
    def mismatch_fraction(self) -> float:
        """Fraction of draws whose outcome signs differ, i.e. whose moves differ."""
        return (self.plus_minus + self.minus_plus) / self.total


def sample_joint_outcomes(
    dir_one: float, dir_two: float, m: int, sampler: SingletSampler
) -> JointOutcomeCounts:
    """Draw m independent singlet measurement outcome pairs.

    Both marginals are fair coins and the joint law is
    P(s, t) = (1 - s*t*cos(dir_two - dir_one)) / 4.  The pairs are the
    moves of the coupled strategies for a plan that measures along
    ``dir_one`` and ``dir_two`` in every state, over m all-zero rounds;
    a positive sign is move A.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    plan = GeneralAnglePlan(dir_one, dir_one, dir_two, dir_two)
    one, two = quantum_player_strategy(plan, sampler)
    states, rounds = np.zeros(m, dtype=np.uint8), np.arange(m)
    move_one = one.moves(states, rounds, None)
    move_two = two.moves(states, rounds, None)
    plus_plus, plus_minus, minus_plus, minus_minus = (
        int(c) for c in np.bincount(2 * move_one + move_two, minlength=4)
    )
    return JointOutcomeCounts(plus_plus, plus_minus, minus_plus, minus_minus, total=m)


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
    equals player one's with probability
    ``p_same[i, j] = 1 - mismatch_probability(a_i, b_j)``, tabulated once
    per plan.
    """

    def __init__(self, plan: GeneralAnglePlan, sampler: SingletSampler):
        a = np.array([plan.a0, plan.a1])
        b = np.array([plan.b0, plan.b1])
        self._p_same = 1.0 - mismatch_probability(a[:, np.newaxis], b[np.newaxis, :])
        self._sampler = sampler
        self._pending = None

    def measure_one(self, states: np.ndarray, round_indices: np.ndarray) -> np.ndarray:
        u, v = self._sampler.draw(len(states))
        move_one = u >= 0.5
        self._pending = (np.array(round_indices), np.array(states), move_one, v)
        return move_one.astype(np.uint8)

    def measure_two(self, states: np.ndarray, round_indices: np.ndarray) -> np.ndarray:
        if self._pending is None:
            raise RuntimeError("player one must measure each singlet batch first")
        rounds_one, states_one, move_one, v = self._pending
        self._pending = None
        if not np.array_equal(rounds_one, round_indices):
            raise RuntimeError("both players must consume the same singlet rounds")
        differ = v >= self._p_same[states_one, states]
        return (move_one ^ differ).astype(np.uint8)


@dataclass(frozen=True)
class _EntangledPlayer:
    source: _SingletSource
    role: int  # 1 or 2

    def moves(self, states, round_indices, shared):
        if self.role == 1:
            return self.source.measure_one(states, round_indices)
        return self.source.measure_two(states, round_indices)


def quantum_player_strategy(
    plan: GeneralAnglePlan, sampler: SingletSampler
) -> tuple[_EntangledPlayer, _EntangledPlayer]:
    """Coupled strategy pair sharing one singlet per round.

    The returned strategies are bound to a common entanglement source and
    must be queried in player order, which the match arbiter does.  They
    ignore the arbiter's classical shared stream; their correlation comes
    entirely from the sampler's singlet randomness, so fixed (plan,
    sampler seed, schedule, match seed) reproduces a match exactly.
    """
    source = _SingletSource(plan, sampler)
    return _EntangledPlayer(source, 1), _EntangledPlayer(source, 2)
