"""Acceptance checks for the package's headline guarantees.

Each criterion is one test named by its number and prints a single
machine-greppable PASS/FAIL line on the real stdout, bypassing pytest's
capture, so a full run shows ten verdict lines.  Statistical checks use
fixed seeds and 4-sigma windows; exact checks use 1e-12 tolerances.
"""

import functools
import sys
import time

import numpy as np
import pytest

import coordgame as cg
from helpers import block_schedule, played

_SIGMA = 4.0  # statistical window for all Monte Carlo criteria


def criterion(num: int, description: str, budget_seconds: float):
    """Print one verdict line per criterion and enforce its runtime budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {description}", file=sys.__stdout__)
                raise
            elapsed = time.perf_counter() - start
            verdict = "PASS" if elapsed <= budget_seconds else "FAIL"
            print(
                f"ACCEPTANCE {num:02d} {verdict}  {description} ({elapsed:.2f}s)",
                file=sys.__stdout__,
            )
            assert elapsed <= budget_seconds, (
                f"criterion {num} exceeded its {budget_seconds}s runtime budget"
            )

        return wrapper

    return decorate


@criterion(1, "classical analytic payoff is exactly 3 across feasible flip fractions", 1.0)
def test_criterion_01_classical_analytic_payoff():
    for q in (0.05, 0.1, 0.2, 0.3):
        profile = cg.analytic_classical_profile(q, "disjoint-flips")
        assert cg.payoff(profile) == pytest.approx(3.0, abs=1e-12)


@criterion(2, "full-cycle match reproduces the flip-count frequencies exactly", 1.0)
def test_criterion_02_classical_empirical_exactness():
    n, q = 10**4, 0.1
    f = round(q * n)
    sequences = cg.generate_sequences(cg.ClassicalConfig(n=n, q=q, seed=12345))
    profile = cg.match_profile(
        cg.classical_strategy(1, sequences),
        cg.classical_strategy(2, sequences),
        n,
    )
    assert profile.q00 == 3 * f / n
    assert profile.q01 == f / n
    assert profile.q10 == f / n
    assert profile.q11 == f / n
    assert cg.payoff(profile) == pytest.approx(3.0, abs=1e-12)


@criterion(3, "pairwise sequence distances are flip-count multiples for 100 seeds", 1.0)
def test_criterion_03_hamming_distance_property():
    n, q, f = 1000, 0.1, 100
    for seed in range(100):
        sequences = cg.generate_sequences(cg.ClassicalConfig(n=n, q=q, seed=seed))
        for a in range(4):
            for b in range(a + 1, 4):
                assert sequences.distance(a, b) == f * abs(a - b)


@criterion(4, "quantum payoff hits 8.99940 at spacing 0.01 and decreases on the grid", 1.0)
def test_criterion_04_quantum_analytic_limit():
    assert cg.payoff(cg.quantum_profile(0.01)) == pytest.approx(8.99940, abs=1e-4)
    _, profile = cg.sweep_quantum_payoff(0.01, 1.0, 100)
    assert np.all(np.diff(cg.payoff(profile)) < 0)


@criterion(5, "singlet Monte Carlo matches each analytic entry within 4 sigma", 10.0)
def test_criterion_05_quantum_monte_carlo_convergence():
    delta, rounds = 0.2, 10**6
    analytic = cg.quantum_profile(delta)
    assert analytic.q00 == pytest.approx(0.0873322, abs=5e-8)
    assert analytic.q01 == pytest.approx(0.0099667, abs=5e-8)
    one, two = cg.quantum_player_strategy(cg.GeneralAnglePlan.equally_spaced(delta), 0)
    empirical = cg.match_profile(one, two, rounds)
    assert analytic.q.shape == empirical.q.shape == (4,)
    for a, e in zip(analytic.q, empirical.q):
        sigma = np.sqrt(a * (1 - a) / rounds)
        assert abs(e - a) < _SIGMA * sigma


@criterion(6, "vertex enumeration caps mixtures at payoff 3 and a witness attains it", 5.0)
def test_criterion_06_lhv_optimum():
    moves, vertices = cg.enumerate_deterministic_pairs()
    assert moves.shape == (16, 4)
    assert np.all(vertices.q00 <= vertices.q01 + vertices.q10 + vertices.q11)

    supremum, witness = cg.lhv_supremum_payoff()
    assert supremum == 3.0
    assert cg.payoff(cg.lhv_profile(witness)) == pytest.approx(3.0, abs=1e-12)

    # 200k sparse random mixtures, scored at once through the column payoff
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.full(16, 0.05), size=200_000)
    q = vertices.q @ weights.T
    best = cg.payoff(cg.MismatchProfile(*q)).max()
    assert 2.9 < best <= 3.0 + 1e-12


@criterion(7, "singlet profiles break the classical bound but not the quantum bound", 1.0)
def test_criterion_07_bound_separation():
    for delta in np.linspace(0.01, 0.5, 50):
        profile = cg.quantum_profile(float(delta))
        assert cg.classical_bound(profile).slack < 0
        assert cg.quantum_bound(profile).slack >= -1e-12


@criterion(8, "ten thousand random angle plans satisfy the quantum bound", 1.0)
def test_criterion_08_quantum_bound_property():
    rng = np.random.default_rng(2024)
    for a0, a1, b0, b1 in rng.uniform(0, 2 * np.pi, size=(10_000, 4)):
        plan = cg.GeneralAnglePlan(a0, a1, b0, b1)
        assert cg.quantum_bound(cg.general_quantum_profile(plan)).slack >= -1e-12


class _Instrumented:
    """Wraps a strategy and records exactly what the arbiter shows it."""

    def __init__(self, inner):
        self.inner = inner
        self.states_seen = []

    def moves(self, start, n, state):
        self.states_seen.append(np.full(n, state, dtype=np.uint8))
        return self.inner.moves(start, n, state)


@criterion(9, "each player's move frequency is fair regardless of the partner's state", 10.0)
def test_criterion_09_no_signaling():
    rounds_per_pair = 250_000  # one million rounds total
    schedule = block_schedule(rounds_per_pair)
    inner_one, inner_two = cg.quantum_player_strategy(
        cg.GeneralAnglePlan.equally_spaced(0.1), 0
    )
    one, two = _Instrumented(inner_one), _Instrumented(inner_two)
    move_one, move_two = played(one, two, rounds_per_pair)

    # instrumentation: each strategy was shown only its own state column
    assert np.array_equal(np.concatenate(one.states_seen), schedule[:, 0])
    assert np.array_equal(np.concatenate(two.states_seen), schedule[:, 1])

    for moves, other_column in ((move_one, 1), (move_two, 0)):
        for other_state in (0, 1):
            mask = schedule[:, other_column] == other_state
            n = int(mask.sum())
            frequency = float(moves[mask].mean())
            assert abs(frequency - 0.5) < _SIGMA * np.sqrt(0.25 / n)


@criterion(10, "channel-chain payoff matches 3 - 6q + 4q^2 and trends toward 3", 5.0)
def test_criterion_10_bsc_variant():
    n, q = 10**6, 0.05
    target = 3 - 6 * q + 4 * q**2
    sequences = cg.generate_sequences(cg.ClassicalConfig(n=n, q=q, mode="bsc-chain", seed=0))
    profile = cg.match_profile(
        cg.classical_strategy(1, sequences),
        cg.classical_strategy(2, sequences),
        n,
    )
    sigma = cg.confidence_halfwidth(profile, n) / 1.96
    assert abs(cg.payoff(profile) - target) < _SIGMA * sigma

    trend = []
    for q_step in (0.1, 0.05, 0.01):
        n_step = 10**5
        seqs = cg.generate_sequences(
            cg.ClassicalConfig(n=n_step, q=q_step, mode="bsc-chain", seed=0)
        )
        profile = cg.match_profile(
            cg.classical_strategy(1, seqs),
            cg.classical_strategy(2, seqs),
            n_step,
        )
        trend.append(cg.payoff(profile))
    assert trend[0] < trend[1] < trend[2] < 3.0
