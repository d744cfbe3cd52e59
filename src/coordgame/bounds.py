"""Achievability bounds, exhaustive classical optimality, and the payoff sweep.

Classically coordinated players can only mix deterministic state-to-move
maps using shared randomness, so every classical profile is a convex
combination of the 16 deterministic-pair profiles; checking the bound
q00 <= q01 + q10 + q11 on those 16 vertices proves it for every mixture
and caps the classical payoff at 3, attained by the shared-sequence
construction.  Singlet-based profiles instead obey the weaker bound
q00 <= (sqrt(q01) + sqrt(q10) + sqrt(q11))^2, which caps their payoff at
9.  For any directions, write phi_ij = b_j - a_i - pi, so that
q_ij = sin^2(phi_ij / 2) and phi_00 = phi_01 + phi_10 - phi_11; since
|sin| is subadditive, sqrt(q00) <= sqrt(q01) + sqrt(q10) + sqrt(q11) <=
3 * sqrt(max(q01, q10, q11)).  The equally-spaced plan reaches
(1 + 2 cos delta)^2, which tends to 9.  This module checks both
inequalities, which broadcast over column profiles, enumerates the
vertices as a (16, 4) move array and a 16-row column profile, and sweeps
the singlet payoff over a spacing grid as one column profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game import STATE_PAIRS, MismatchProfile
from .quantum import GeneralAnglePlan, quantum_profile
# unused here, but the benchmark trace wraps these two names in this module
from .game import payoff as _payoff  # noqa: F401
from .quantum import general_quantum_profile  # noqa: F401

__all__ = [
    "BOUND_TOLERANCE",
    "BoundVerdict",
    "classical_bound",
    "quantum_bound",
    "enumerate_deterministic_pairs",
    "lhv_profile",
    "lhv_supremum_payoff",
    "sweep_quantum_payoff",
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
    """Check q00 <= q01 + q10 + q11, satisfied by every shared-randomness strategy.

    A column profile, such as a sweep's, gets one ``holds`` and one
    ``slack`` per row.  The check is necessary only: ``holds`` does not mean
    a strategy reaches the profile.  ``bounds 0 0 0 1`` holds under both
    bounds, yet no strategy of either class reaches it (ROADMAP item 1).
    """
    slack = (profile.q01 + profile.q10 + profile.q11) - profile.q00
    return BoundVerdict.from_slack(slack)


def quantum_bound(profile: MismatchProfile) -> BoundVerdict:
    """Check q00 <= (sqrt(q01) + sqrt(q10) + sqrt(q11))^2, satisfied by singlet profiles.

    Every measurement plan satisfies it.  With phi_ij = b_j - a_i - pi the
    singlet gives q_ij = sin^2(phi_ij / 2), and phi_00 = phi_01 + phi_10 -
    phi_11 for any directions.  As |sin| is subadditive, sqrt(q00) <=
    sqrt(q01) + sqrt(q10) + sqrt(q11) <= 3 * sqrt(max(q01, q10, q11)),
    which caps the payoff at 9.  A column profile gets one ``holds`` and
    one ``slack`` per row, and is necessary only, as in :func:`classical_bound`:
    ``bounds 0.9 0.1 0.1 0.1`` holds with payoff 9, where the exact quantum
    maximum at q = 0.1 is 6.76 (ROADMAP item 1).
    """
    rhs = (np.sqrt(profile.q01) + np.sqrt(profile.q10) + np.sqrt(profile.q11)) ** 2
    return BoundVerdict.from_slack(rhs - profile.q00)


def enumerate_deterministic_pairs() -> tuple[np.ndarray, MismatchProfile]:
    """All 16 deterministic strategy pairs and their indicator profiles.

    ``moves`` is a read-only (16, 4) uint8 array whose columns are player
    one's move in state 0 and in state 1, then player two's, 0 for A.  Row
    k is k in binary, so player one's map varies slowest.  ``vertices`` is
    the 16-row column profile whose row k has entry (i, j) equal to 1 iff
    ``moves[k, i] != moves[k, 2 + j]``.  Mixture weights index this order.
    """
    moves = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
    moves.setflags(write=False)
    vertices = MismatchProfile(*(moves[:, i] != moves[:, 2 + j] for i, j in STATE_PAIRS))
    return moves, vertices


def lhv_profile(weights) -> MismatchProfile:
    """Profile of shared classical randomness: the weighted average of the vertex profiles.

    ``weights`` holds one weight per deterministic pair, in the
    :func:`enumerate_deterministic_pairs` order, and must lie on the
    probability simplex to within 1e-12.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (16,):
        raise ValueError("mixture needs exactly 16 weights")
    if w.min() < -1e-12:
        raise ValueError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-12:
        raise ValueError(f"mixture weights sum to {w.sum()!r}, expected 1")
    _, vertices = enumerate_deterministic_pairs()
    return MismatchProfile(*np.clip(w @ vertices.q.T, 0.0, 1.0))


def lhv_supremum_payoff() -> tuple[float, np.ndarray]:
    """Largest payoff reachable with shared classical randomness, with witness weights.

    The value is exact, by finite search rather than numerical
    optimization: every one of the 16 vertices satisfies
    d00 <= d01 + d10 + d11 (verified exhaustively here), mixtures inherit
    the inequality by linearity, and q00 <= q01 + q10 + q11 <= 3 *
    max(q01, q10, q11) caps the payoff at 3.  The returned read-only
    weights over the 16 vertices realize the profile (0.3, 0.1, 0.1, 0.1)
    and attain 3.

    Raises:
        RuntimeError: if a vertex breaks the inequality, so the proof fails.
            The check is explicit so that it also runs under ``python -O``.
    """
    moves, vertices = enumerate_deterministic_pairs()
    holds = classical_bound(vertices).holds
    if not holds.all():
        k = np.flatnonzero(~holds)[0]
        raise RuntimeError(f"vertex bound broken: vertex {k}, moves {moves[k].tolist()}")

    weights = np.zeros(16)
    # rows 0b0000, 0b0111, 0b0110 and 0b0010: indicators (0,0,0,0),
    # (1,1,0,0), (1,0,0,1) and (1,0,1,0)
    weights[[0, 7, 6, 2]] = 0.7, 0.1, 0.1, 0.1
    weights.setflags(write=False)
    return 3.0, weights


def sweep_quantum_payoff(
    delta_min: float, delta_max: float, steps: int
) -> tuple[np.ndarray, MismatchProfile]:
    """The equally-spaced singlet plan over an angle-spacing grid.

    Returns the read-only, strictly increasing grid of ``steps`` spacings
    and ``quantum_profile`` of it: a column profile whose row k is exactly
    ``quantum_profile(deltas[k])``.  ``payoff`` and ``classical_bound``
    take the profile whole and give one value per row.
    """
    if not (np.isfinite(delta_min) and np.isfinite(delta_max)):
        raise ValueError(
            f"sweep bounds must be finite, got delta_min={delta_min!r}, delta_max={delta_max!r}"
        )
    if not 0.0 < delta_min < delta_max:
        raise ValueError("need 0 < delta_min < delta_max")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    # every angle grows with delta, so the largest plan checks them all before the grid exists
    GeneralAnglePlan.equally_spaced(delta_max)
    deltas = np.linspace(delta_min, delta_max, steps)
    if np.any(np.diff(deltas) <= 0.0):
        raise ValueError("sweep rows must be strictly sorted by parameter value")
    deltas.setflags(write=False)
    return deltas, quantum_profile(deltas)
