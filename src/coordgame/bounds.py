"""Achievability bounds, exhaustive classical optimality, and payoff searches.

Classically coordinated players can only mix deterministic state-to-move
maps using shared randomness, so every classical profile is a convex
combination of the 16 deterministic-pair profiles; checking the bound
q00 <= q01 + q10 + q11 on those 16 vertices proves it for every mixture
and caps the classical payoff at 3, attained by the shared-sequence
construction.  Singlet-based profiles instead obey the weaker bound
q00 <= (sqrt(q01) + sqrt(q10) + sqrt(q11))^2, which caps their payoff at
9.  This module checks both inequalities, enumerates the vertices, and
provides numerical searches over mixtures and measurement angles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .game import MismatchProfile, Move
from .game import payoff as _payoff
from .quantum import GeneralAnglePlan, general_quantum_profile, quantum_profile
from .quantum import mismatch_probability

__all__ = [
    "BOUND_TOLERANCE",
    "BoundVerdict",
    "DeterministicStrategyPair",
    "LhvMixture",
    "SweepRow",
    "SweepTable",
    "AngleSearchResult",
    "classical_bound",
    "quantum_bound",
    "enumerate_deterministic_pairs",
    "lhv_profile",
    "lhv_supremum_payoff",
    "hill_climb_lhv_payoff",
    "sweep_quantum_payoff",
    "optimize_general_angles",
]

#: Absolute tolerance for bound verdicts; all quantities are O(1) trig values.
BOUND_TOLERANCE = 1e-12


@dataclass(frozen=True)
class BoundVerdict:
    """Outcome of one inequality check: slack = RHS - LHS, holds iff slack >= -tol."""

    holds: bool
    slack: float

    @classmethod
    def from_slack(cls, slack: float) -> "BoundVerdict":
        return cls(holds=slack >= -BOUND_TOLERANCE, slack=slack)


def classical_bound(profile: MismatchProfile) -> BoundVerdict:
    """Check q00 <= q01 + q10 + q11, satisfied by every shared-randomness strategy."""
    slack = (profile.q01 + profile.q10 + profile.q11) - profile.q00
    return BoundVerdict.from_slack(slack)


def quantum_bound(profile: MismatchProfile) -> BoundVerdict:
    """Check q00 <= (sqrt(q01) + sqrt(q10) + sqrt(q11))^2, satisfied by singlet profiles."""
    rhs = (np.sqrt(profile.q01) + np.sqrt(profile.q10) + np.sqrt(profile.q11)) ** 2
    return BoundVerdict.from_slack(float(rhs) - profile.q00)


@dataclass(frozen=True)
class DeterministicStrategyPair:
    """A deterministic state-to-move map per player; 16 distinct pairs exist.

    ``m1[s]`` and ``m2[s]`` are the moves played in state ``s``.
    """

    m1: tuple[Move, Move]
    m2: tuple[Move, Move]

    def mismatch_profile(self) -> MismatchProfile:
        """0/1 indicator profile: entry (i, j) is 1 iff m1[i] != m2[j]."""
        return MismatchProfile(
            q00=float(self.m1[0] != self.m2[0]),
            q01=float(self.m1[0] != self.m2[1]),
            q10=float(self.m1[1] != self.m2[0]),
            q11=float(self.m1[1] != self.m2[1]),
        )


def enumerate_deterministic_pairs() -> list[tuple[DeterministicStrategyPair, MismatchProfile]]:
    """All 16 deterministic strategy pairs with their indicator profiles.

    Order is fixed: player one's map varies slowest, states in (0, 1)
    order, move A before B.  Mixture weights index this order.
    """
    maps = list(itertools.product((Move.A, Move.B), repeat=2))
    out = []
    for m1 in maps:
        for m2 in maps:
            pair = DeterministicStrategyPair(m1=m1, m2=m2)
            out.append((pair, pair.mismatch_profile()))
    return out


def _vertex_matrix() -> np.ndarray:
    """(16, 4) matrix of vertex profiles in (q00, q01, q10, q11) column order."""
    return np.array([p.as_array() for _, p in enumerate_deterministic_pairs()])


@dataclass(frozen=True)
class LhvMixture:
    """Shared classical randomness as weights over the 16 deterministic pairs.

    Weights follow the :func:`enumerate_deterministic_pairs` order and
    must lie on the probability simplex to within 1e-12.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)  # a copy: the caller's array stays writable
        if w.shape != (16,):
            raise ValueError("mixture needs exactly 16 weights")
        if w.min() < -1e-12:
            raise ValueError("mixture weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "weights", w)
        w.setflags(write=False)


def lhv_profile(mixture: LhvMixture) -> MismatchProfile:
    """Profile of a mixture: the weighted average of the vertex indicator profiles."""
    q = np.clip(mixture.weights @ _vertex_matrix(), 0.0, 1.0)
    return MismatchProfile(q00=float(q[0]), q01=float(q[1]), q10=float(q[2]), q11=float(q[3]))


def lhv_supremum_payoff() -> tuple[float, LhvMixture]:
    """Largest payoff reachable with shared classical randomness, with a witness.

    The value is exact, by finite search rather than numerical
    optimization: every one of the 16 vertices satisfies
    d00 <= d01 + d10 + d11 (verified exhaustively here), mixtures inherit
    the inequality by linearity, and q00 <= q01 + q10 + q11 <= 3 *
    max(q01, q10, q11) caps the payoff at 3.  The returned witness
    mixture realizes the profile (0.3, 0.1, 0.1, 0.1) and attains 3.

    Raises:
        RuntimeError: if a vertex breaks the inequality, so the proof fails.
            The check is explicit so that it also runs under ``python -O``.
    """
    pairs = enumerate_deterministic_pairs()
    for pair, prof in pairs:
        if prof.q00 > prof.q01 + prof.q10 + prof.q11:
            raise RuntimeError(f"vertex bound broken: {pair}")

    a, b = Move.A, Move.B
    witness_vertices = {
        ((a, a), (a, a)): 0.7,  # indicator (0,0,0,0)
        ((a, b), (b, b)): 0.1,  # indicator (1,1,0,0)
        ((a, b), (b, a)): 0.1,  # indicator (1,0,0,1)
        ((a, a), (b, a)): 0.1,  # indicator (1,0,1,0)
    }
    weights = np.array(
        [witness_vertices.get((pair.m1, pair.m2), 0.0) for pair, _ in pairs]
    )
    return 3.0, LhvMixture(weights=weights)


def hill_climb_lhv_payoff(
    restarts: int = 1000, steps: int = 60, seed: int = 0
) -> float:
    """Best mixture payoff found by random-restart local search on the simplex.

    Independent corroboration of :func:`lhv_supremum_payoff`; it explores
    the 16-simplex directly and should never exceed 3 by more than float
    noise.  Mixtures whose three denominator entries all vanish are
    scored 0 (their numerator vanishes too, by the vertex bound).
    """
    rng = np.random.default_rng(seed)
    d = _vertex_matrix()

    def score(w: np.ndarray) -> float:
        q = w @ d
        denom = q[1:].max()
        return q[0] / denom if denom > 0.0 else 0.0

    best = 0.0
    for _ in range(restarts):
        w = rng.dirichlet(np.ones(16))
        current = score(w)
        scale = 0.5
        for _ in range(steps):
            proposal = np.clip(w + scale * rng.normal(size=16), 0.0, None)
            total = proposal.sum()
            if total <= 0.0:
                continue
            proposal /= total
            value = score(proposal)
            if value > current:
                w, current = proposal, value
            else:
                scale *= 0.9
        best = max(best, current)
    return best


class SweepRow(NamedTuple):
    delta: float
    profile: MismatchProfile
    payoff: float


@dataclass(frozen=True)
class SweepTable:
    """Payoff sweep rows, sorted by the swept parameter value."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self) -> None:
        deltas = [r.delta for r in self.rows]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("sweep rows must be strictly sorted by parameter value")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    @property
    def deltas(self) -> np.ndarray:
        return np.array([r.delta for r in self.rows])

    @property
    def payoffs(self) -> np.ndarray:
        return np.array([r.payoff for r in self.rows])


def sweep_quantum_payoff(delta_min: float, delta_max: float, steps: int) -> SweepTable:
    """Singlet-strategy payoff over an angle-spacing grid.

    Each row holds (delta, profile, payoff) with payoff equal to
    (1 - cos 3*delta) / (1 - cos delta).
    """
    if not (np.isfinite(delta_min) and np.isfinite(delta_max)):
        raise ValueError(
            f"sweep bounds must be finite, got delta_min={delta_min!r}, delta_max={delta_max!r}"
        )
    if not 0.0 < delta_min < delta_max:
        raise ValueError("need 0 < delta_min < delta_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    rows = []
    for delta in np.linspace(delta_min, delta_max, steps):
        profile = quantum_profile(float(delta))
        rows.append(SweepRow(float(delta), profile, _payoff(profile)))
    return SweepTable(rows=tuple(rows))


class AngleSearchResult(NamedTuple):
    plan: GeneralAnglePlan
    payoff: float
    near_degenerate: bool


def optimize_general_angles(
    resolution: int = 64,
    refine_iters: int = 60,
    floor: float = 1e-8,
) -> AngleSearchResult:
    """Search measurement angles for the largest singlet-strategy payoff.

    Player one's state-0 direction is pinned at 0 (a global rotation of
    all four directions changes nothing) and the three free angles are
    grid-searched over [0, 2*pi), then refined by coordinate descent
    whose step shrinks whenever a full sweep fails to improve.  During
    the search the payoff denominator entries are floored at ``floor`` so
    the objective stays finite near the all-zero profile; the supremum 9
    is approached there but never attained.  The reported payoff is
    recomputed without the floor and flagged near-degenerate when the
    denominator is within 10 * floor of vanishing.

    The maximizing configurations form a diagonal ridge in the three
    angles (equally spaced directions with ever smaller spacing), which
    single-coordinate moves cannot descend along, so the result is
    essentially the best on-grid point and ``resolution`` controls how
    close the reported payoff gets to the supremum.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")

    def floored_payoff(a1, b0, b1):
        q00 = mismatch_probability(0.0, b0)
        q01 = mismatch_probability(0.0, b1)
        q10 = mismatch_probability(a1, b0)
        q11 = mismatch_probability(a1, b1)
        denom = np.maximum(np.maximum(q01, q10), np.maximum(q11, floor))
        return q00 / denom

    grid = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    a1g, b0g, b1g = np.meshgrid(grid, grid, grid, indexing="ij")
    values = floored_payoff(a1g, b0g, b1g)
    flat = int(np.argmax(values))
    point = np.array([a1g.flat[flat], b0g.flat[flat], b1g.flat[flat]])

    step = float(grid[1] - grid[0])
    best = float(values.flat[flat])
    for _ in range(refine_iters):
        improved = False
        for axis in range(3):
            for direction in (+1.0, -1.0):
                candidate = point.copy()
                candidate[axis] += direction * step
                value = float(floored_payoff(*candidate))
                if value > best:
                    point, best, improved = candidate, value, True
        if not improved:
            step *= 0.5

    plan = GeneralAnglePlan(a0=0.0, a1=float(point[0]), b0=float(point[1]), b1=float(point[2]))
    profile = general_quantum_profile(plan)
    denom = max(profile.q01, profile.q10, profile.q11)
    near_degenerate = denom < 10.0 * floor
    unfloored = profile.q00 / denom if denom > 0.0 else float("nan")
    return AngleSearchResult(plan=plan, payoff=unfloored, near_degenerate=near_degenerate)
