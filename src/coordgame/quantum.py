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
    "AnglePlan",
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

    def direction_one(self, state: int) -> float:
        return self.a0 if state == 0 else self.a1

    def direction_two(self, state: int) -> float:
        return self.b0 if state == 0 else self.b1

    def mismatch_angle(self, i: int, j: int) -> float:
        """Direction difference b_j - a_i for state pair (i, j).

        These four differences are linearly dependent:
        angle(0,0) = angle(0,1) + angle(1,0) - angle(1,1) identically.
        """
        return self.direction_two(j) - self.direction_one(i)


@dataclass(frozen=True)
class AnglePlan:
    """The equally-spaced four-angle plan with spacing ``delta``.

    Measurement angles are 0, delta, 2*delta, 3*delta.  Player one uses
    angle 0 in state 0 and 2*delta in state 1; player two uses pi +
    3*delta in state 0 and pi + delta in state 1.  The directions for
    state pair (0,0) then differ by pi - 3*delta and every other pair by
    pi +/- delta.
    """

    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise ValueError("delta must be finite")

    @property
    def angles(self) -> tuple[float, float, float, float]:
        return (0.0, self.delta, 2.0 * self.delta, 3.0 * self.delta)

    def direction_one(self, state: int) -> float:
        return 0.0 if state == 0 else 2.0 * self.delta

    def direction_two(self, state: int) -> float:
        return math.pi + (3.0 * self.delta if state == 0 else self.delta)

    def as_general(self) -> GeneralAnglePlan:
        return GeneralAnglePlan(
            a0=self.direction_one(0),
            a1=self.direction_one(1),
            b0=self.direction_two(0),
            b1=self.direction_two(1),
        )


def mismatch_probability(dir_one: float, dir_two: float) -> float:
    """Probability the two moves differ for the given measurement directions.

    For the singlet, P(moves differ) = (1 + cos(dir_two - dir_one)) / 2,
    computed as cos((dir_two - dir_one) / 2)**2 to stay accurate when the
    directions are nearly opposite and the probability is tiny.
    """
    return float(np.cos(0.5 * (dir_two - dir_one)) ** 2)


def _plan_profile(plan: GeneralAnglePlan) -> MismatchProfile:
    return MismatchProfile(
        q00=mismatch_probability(plan.a0, plan.b0),
        q01=mismatch_probability(plan.a0, plan.b1),
        q10=mismatch_probability(plan.a1, plan.b0),
        q11=mismatch_probability(plan.a1, plan.b1),
    )


def quantum_profile(delta: float) -> MismatchProfile:
    """Mismatch profile of the equally-spaced plan: ((1-cos 3d)/2, (1-cos d)/2, ...)."""
    return _plan_profile(AnglePlan(delta).as_general())


def general_quantum_profile(plan: GeneralAnglePlan) -> MismatchProfile:
    """Mismatch profile for arbitrary per-state measurement directions."""
    return _plan_profile(plan)


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


def _joint_outcomes(theta, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outcome signs (s, t) with joint law P(s,t) = (1 - s*t*cos(theta)) / 4.

    s is a fair coin (the singlet marginal is unbiased for every
    direction); t equals s with probability (1 - cos(theta)) / 2,
    evaluated as sin(theta/2)**2.
    """
    s = np.where(u < 0.5, 1, -1).astype(np.int8)
    p_same = np.sin(0.5 * np.asarray(theta)) ** 2
    t = np.where(v < p_same, s, -s).astype(np.int8)
    return s, t


def sample_joint_outcomes(
    dir_one: float, dir_two: float, m: int, sampler: SingletSampler
) -> JointOutcomeCounts:
    """Draw m independent singlet measurement outcome pairs.

    Both marginals are fair coins and the joint law is
    P(s, t) = (1 - s*t*cos(dir_two - dir_one)) / 4.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    u, v = sampler.draw(m)
    s, t = _joint_outcomes(dir_two - dir_one, u, v)
    plus_plus = int(np.count_nonzero((s > 0) & (t > 0)))
    plus_minus = int(np.count_nonzero((s > 0) & (t < 0)))
    minus_plus = int(np.count_nonzero((s < 0) & (t > 0)))
    return JointOutcomeCounts(
        plus_plus=plus_plus,
        plus_minus=plus_minus,
        minus_plus=minus_plus,
        minus_minus=m - plus_plus - plus_minus - minus_plus,
        total=m,
    )


class _SingletSource:
    """Produces correlated move pairs for the two coupled strategies.

    Player one's measurement draws the per-round randomness and registers
    its states; player two's measurement for the same rounds then
    completes the joint sampling.  Each strategy still chooses its
    direction from its own state alone, and player one's move is a bare
    coin, independent of every direction.

    Moves are bits (1 for a negative projection, i.e. move B).  Player
    two's outcome equals player one's with probability
    ``p_same[i, j] = sin^2((b_j - a_i) / 2)``, tabulated once per plan.
    """

    def __init__(self, plan: GeneralAnglePlan, sampler: SingletSampler):
        a = np.array([plan.a0, plan.a1])
        b = np.array([plan.b0, plan.b1])
        self._p_same = np.sin(0.5 * (b[np.newaxis, :] - a[:, np.newaxis])) ** 2
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
    plan: AnglePlan | GeneralAnglePlan, sampler: SingletSampler
) -> tuple[_EntangledPlayer, _EntangledPlayer]:
    """Coupled strategy pair sharing one singlet per round.

    The returned strategies are bound to a common entanglement source and
    must be queried in player order, which the match arbiter does.  They
    ignore the arbiter's classical shared stream; their correlation comes
    entirely from the sampler's singlet randomness, so fixed (plan,
    sampler seed, schedule, match seed) reproduces a match exactly.
    """
    general = plan.as_general() if isinstance(plan, AnglePlan) else plan
    source = _SingletSource(general, sampler)
    return _EntangledPlayer(source, 1), _EntangledPlayer(source, 2)
