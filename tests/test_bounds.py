"""Bound inequalities, vertex enumeration, mixtures, sweeps, and the singlet cap."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coordgame
from coordgame import bounds
from coordgame.bounds import (
    BOUND_TOLERANCE,
    BoundVerdict,
    classical_bound,
    enumerate_deterministic_pairs,
    lhv_profile,
    lhv_supremum_payoff,
    quantum_bound,
    sweep_quantum_payoff,
)
from coordgame.game import STATE_PAIRS, MismatchProfile, payoff
from coordgame.quantum import GeneralAnglePlan, general_quantum_profile, quantum_profile

angles = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)


class TestVerdicts:
    def test_tolerance_edges(self):
        assert BoundVerdict.from_slack(0.0).holds
        assert BoundVerdict.from_slack(-BOUND_TOLERANCE).holds
        assert not BoundVerdict.from_slack(-1.1 * BOUND_TOLERANCE).holds

    def test_classical_bound_saturated_by_construction_profile(self):
        v = classical_bound(MismatchProfile(0.3, 0.1, 0.1, 0.1))
        assert v.holds and v.slack == pytest.approx(0.0, abs=1e-15)

    def test_classical_bound_violated_by_quantum_profile(self):
        v = classical_bound(quantum_profile(0.1))
        assert not v.holds
        assert v.slack == pytest.approx(-0.014838003354236, abs=1e-13)

    def test_classical_bound_on_columns_equals_row_calls(self):
        q = np.random.default_rng(5).random((4, 1000))
        q[:, 0] = 0.0  # a degenerate row has a bound verdict too
        verdict = classical_bound(MismatchProfile(*q))
        rows = [classical_bound(MismatchProfile(*column)) for column in q.T]
        assert verdict.slack.tobytes() == np.array([v.slack for v in rows]).tobytes()
        assert verdict.holds.tolist() == [v.holds for v in rows]

    def test_quantum_bound_on_columns_equals_row_calls(self):
        q = np.random.default_rng(6).random((4, 1000))
        q[:, 0] = 0.0  # a degenerate row has a bound verdict too
        verdict = quantum_bound(MismatchProfile(*q))
        rows = [quantum_bound(MismatchProfile(*column)) for column in q.T]
        assert verdict.slack.tobytes() == np.array([v.slack for v in rows]).tobytes()
        assert verdict.holds.tolist() == [v.holds for v in rows]

    def test_classical_bound_on_zero_profile(self):
        v = classical_bound(MismatchProfile(0, 0, 0, 0))
        assert v.holds and v.slack == 0.0

    def test_quantum_bound_on_quantum_profile(self):
        p = quantum_profile(0.1)
        v = quantum_bound(p)
        assert v.holds
        assert v.slack == pytest.approx(9 * p.q01 - p.q00, abs=1e-15)
        assert v.slack == pytest.approx(0.000149500811687, abs=1e-13)

    def test_quantum_bound_violated_by_certain_mismatch(self):
        v = quantum_bound(MismatchProfile(1, 0, 0, 0))
        assert not v.holds and v.slack == pytest.approx(-1.0, abs=1e-15)

    def test_quantum_bound_slack_on_construction_profile(self):
        v = quantum_bound(MismatchProfile(0.3, 0.1, 0.1, 0.1))
        assert v.holds and v.slack == pytest.approx(0.6, abs=1e-12)


class TestEnumeration:
    def test_sixteen_distinct_pairs(self):
        moves, vertices = enumerate_deterministic_pairs()
        assert moves.shape == (16, 4) and moves.dtype == np.uint8
        assert len({tuple(row) for row in moves.tolist()}) == 16
        for k, row in enumerate(moves.tolist()):
            assert row == [int(bit) for bit in format(k, "04b")]
        assert vertices.q.shape == (4, 16) and vertices.q.dtype == np.float64

    def test_constant_pairs(self):
        moves, vertices = enumerate_deterministic_pairs()
        q = vertices.q
        assert moves[0].tolist() == [0, 0, 0, 0] and q[:, 0].tolist() == [0.0] * 4  # AA against AA
        assert moves[3].tolist() == [0, 0, 1, 1] and q[:, 3].tolist() == [1.0] * 4  # AA against BB

    def test_profiles_are_indicator_tables(self):
        moves, vertices = enumerate_deterministic_pairs()
        for k, (a0, a1, b0, b1) in enumerate(moves.tolist()):
            m1, m2 = (a0, a1), (b0, b1)
            for n, (i, j) in enumerate(STATE_PAIRS):
                assert vertices.q[n, k] == getattr(vertices, f"q{i}{j}")[k] == float(m1[i] != m2[j])

    def test_arrays_are_read_only(self):
        moves, vertices = enumerate_deterministic_pairs()
        for array in (moves, vertices.q, vertices.q00, vertices.q01, vertices.q10, vertices.q11):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_every_vertex_satisfies_classical_bound(self):
        _, vertices = enumerate_deterministic_pairs()
        verdict = classical_bound(vertices)
        assert verdict.holds.shape == (16,) and verdict.holds.all()
        assert verdict.slack.min() == 0.0

    def test_row_seven_is_ab_against_bb(self):
        moves, vertices = enumerate_deterministic_pairs()
        assert moves[7].tolist() == [0, 1, 1, 1]  # m1 = (A, B), m2 = (B, B)
        assert vertices.q[:, 7].tolist() == [1.0, 1.0, 0.0, 0.0]


def _corrupted_pairs():
    """The vertex arrays with row 0's indicator replaced by (1, 0, 0, 0)."""
    moves, vertices = enumerate_deterministic_pairs()
    q = vertices.q.copy()
    q[0, 0] = 1.0
    return moves, MismatchProfile(*q)


def _indicator_sum(weights, moves):
    """sum_k w_k * [m1[i] != m2[j]] for each (i, j), in plain Python over the move rows."""
    sums = []
    for i, j in STATE_PAIRS:
        total = 0.0
        for w, (a0, a1, b0, b1) in zip(weights, moves.tolist()):
            total += w * ((a0, a1)[i] != (b0, b1)[j])
        sums.append(total)
    return sums


simplex_weights = (
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16)
    .filter(lambda w: sum(w) > 1e-6)
    .map(lambda raw: np.array(raw) / np.sum(raw))
    .map(lambda w: w / w.sum())  # renormalize twice to land within 1e-12 of the simplex
)


class TestMixtures:
    def test_point_mass_on_constant_pair(self):
        w = np.zeros(16)
        w[0] = 1.0  # row 0 is (m1=AA, m2=AA)
        assert lhv_profile(w) == MismatchProfile(0, 0, 0, 0)

    def test_uniform_mixture_averages_to_half(self):
        prof = lhv_profile(np.full(16, 1 / 16))
        assert prof == MismatchProfile(0.5, 0.5, 0.5, 0.5)

    def test_simplex_validation(self):
        with pytest.raises(ValueError, match="sum to"):
            lhv_profile(np.full(16, 0.1))
        with pytest.raises(ValueError, match="nonnegative"):
            lhv_profile(np.array([1.5, -0.5] + [0.0] * 14))
        with pytest.raises(ValueError, match="exactly 16"):
            lhv_profile(np.full(8, 0.125))
        with pytest.raises(ValueError, match="exactly 16"):
            lhv_profile(np.full((2, 16), 1 / 16))

    def test_callers_array_stays_writable(self):
        w = np.full(16, 1 / 16)
        lhv_profile(w)
        assert w.flags.writeable
        assert w.tolist() == [1 / 16] * 16

    @given(simplex_weights)
    def test_every_mixture_satisfies_classical_bound(self, w):
        assert classical_bound(lhv_profile(w)).holds

    @given(simplex_weights)
    def test_equals_the_weighted_sum_of_indicators(self, w):
        moves, _ = enumerate_deterministic_pairs()
        expected = _indicator_sum(w.tolist(), moves)
        assert lhv_profile(w).q == pytest.approx(expected, abs=1e-15)


class TestSupremum:
    def test_value_is_exactly_three(self):
        value, _ = lhv_supremum_payoff()
        assert value == 3.0

    def test_witness_attains_three(self):
        _, witness = lhv_supremum_payoff()
        prof = lhv_profile(witness)
        assert prof.q00 == pytest.approx(0.3, abs=1e-15)
        assert prof.q01 == pytest.approx(0.1, abs=1e-15)
        assert prof.q10 == pytest.approx(0.1, abs=1e-15)
        assert prof.q11 == pytest.approx(0.1, abs=1e-15)
        assert payoff(prof) == pytest.approx(3.0, abs=1e-12)

    def test_witness_is_a_valid_mixture(self):
        _, witness = lhv_supremum_payoff()
        assert witness.shape == (16,)
        assert witness.sum() == pytest.approx(1.0, abs=1e-15)
        assert witness.min() >= 0.0
        with pytest.raises(ValueError):
            witness[0] = 0.5

    def test_corrupted_vertex_table_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "enumerate_deterministic_pairs", _corrupted_pairs)
        with pytest.raises(RuntimeError, match="vertex bound broken: vertex 0"):
            lhv_supremum_payoff()

    def test_corrupted_vertex_table_raises_under_optimize(self):
        # python -O strips assert statements; the vertex proof must not be one
        script = textwrap.dedent(
            """
            import sys
            from coordgame import bounds
            from coordgame.game import MismatchProfile

            if not sys.flags.optimize:
                sys.exit("not running under -O")
            moves, vertices = bounds.enumerate_deterministic_pairs()
            q = vertices.q.copy()
            q[0, 0] = 1.0
            bounds.enumerate_deterministic_pairs = lambda: (moves, MismatchProfile(*q))
            try:
                bounds.lhv_supremum_payoff()
            except RuntimeError:
                sys.exit(0)
            sys.exit("corrupted vertex table accepted")
            """
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coordgame.__file__))}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_random_mixtures_never_beat_three(self):
        # 200k sparse mixtures scored at once through the column payoff
        rng = np.random.default_rng(0)
        weights = rng.dirichlet(np.full(16, 0.05), size=200_000)
        _, vertices = enumerate_deterministic_pairs()
        q = vertices.q @ weights.T
        best = payoff(MismatchProfile(*q)).max()
        assert best <= 3.0 + 1e-12
        assert best > 2.9  # the sample reaches close to the optimum


class TestSineInequality:
    def test_triangle_inequality_for_sines(self):
        # |sin(x+y+z)| <= |sin x| + |sin y| + |sin z| underlies the factor-9 cap.
        rng = np.random.default_rng(0)
        x, y, z = rng.uniform(0, 2 * np.pi, size=(3, 10_000))
        lhs = np.abs(np.sin(x + y + z))
        rhs = np.abs(np.sin(x)) + np.abs(np.sin(y)) + np.abs(np.sin(z))
        assert np.all(lhs <= rhs + 1e-12)


class TestQuantumBoundProperty:
    def test_ten_thousand_random_plans(self):
        rng = np.random.default_rng(123)
        a0, a1, b0, b1 = rng.uniform(0, 2 * np.pi, size=(4, 10_000))
        q00 = np.cos(0.5 * (b0 - a0)) ** 2
        q01 = np.cos(0.5 * (b1 - a0)) ** 2
        q10 = np.cos(0.5 * (b0 - a1)) ** 2
        q11 = np.cos(0.5 * (b1 - a1)) ** 2
        slack = (np.sqrt(q01) + np.sqrt(q10) + np.sqrt(q11)) ** 2 - q00
        assert slack.min() >= -BOUND_TOLERANCE

    @given(angles, angles, angles, angles)
    def test_random_plan_satisfies_quantum_bound(self, a0, a1, b0, b1):
        prof = general_quantum_profile(GeneralAnglePlan(a0, a1, b0, b1))
        assert quantum_bound(prof).holds

    def test_separation_window(self):
        # On (0, 0.5] the equally-spaced profile breaks the classical bound
        # by a margin that grows like delta^2; no tolerance artifact.
        for delta in np.linspace(0.01, 0.5, 50):
            prof = quantum_profile(delta)
            assert classical_bound(prof).slack < -(delta**2) * 0.9
            assert quantum_bound(prof).slack >= -BOUND_TOLERANCE


class TestSweep:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sweep_quantum_payoff(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            sweep_quantum_payoff(0.5, 0.1, 10)
        with pytest.raises(ValueError):
            sweep_quantum_payoff(0.1, 0.5, 1)

    @pytest.mark.parametrize(
        "delta_min, delta_max", [(0.01, np.inf), (np.nan, 1.0), (0.01, np.nan), (-np.inf, 1.0)]
    )
    def test_rejects_non_finite_bounds(self, delta_min, delta_max):
        with pytest.raises(ValueError, match="sweep bounds must be finite"):
            sweep_quantum_payoff(delta_min, delta_max, 10)

    def test_rows_cover_requested_grid(self):
        deltas, profile = sweep_quantum_payoff(0.1, 0.5, 5)
        assert deltas == pytest.approx(np.linspace(0.1, 0.5, 5))
        assert profile.q.shape == (4, 5)

    def test_every_row_equals_the_scalar_profile(self):
        deltas, profile = sweep_quantum_payoff(0.01, 1.0, 101)
        payoffs = payoff(profile)
        for k, delta in enumerate(deltas):
            row = quantum_profile(float(delta))
            assert MismatchProfile(profile.q00[k], profile.q01[k], profile.q10[k], profile.q11[k]) == row
            assert payoffs[k] == payoff(row)

    def test_columns_are_read_only(self):
        deltas, profile = sweep_quantum_payoff(0.1, 0.5, 5)
        for column in (deltas, profile.q00, profile.q01, profile.q10, profile.q11):
            with pytest.raises(ValueError):
                column[0] = 0.5

    def test_payoff_column_matches_ratio(self):
        deltas, profile = sweep_quantum_payoff(0.2, 1.0, 9)
        for delta, value in zip(deltas, payoff(profile)):
            assert value == pytest.approx(
                (1 - np.cos(3 * delta)) / (1 - np.cos(delta)), abs=1e-12
            )

    def test_payoff_strictly_decreasing_on_unit_grid(self):
        payoffs = payoff(sweep_quantum_payoff(0.01, 1.0, 100)[1])
        assert np.all(np.diff(payoffs) < 0)
        assert payoffs[0] >= 8.999

    def test_exact_value_at_pi_thirds(self):
        assert payoff(quantum_profile(np.pi / 3)) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_a_grid_that_repeats_a_spacing(self):
        # linspace repeats a value on a grid this fine
        with pytest.raises(ValueError, match="strictly sorted"):
            sweep_quantum_payoff(1.0, 1.000000000000001, 100)

    def test_rejects_an_overflowing_plan_before_building_the_grid(self):
        # a RuntimeWarning fails the suite: linspace would overflow on this range
        with pytest.raises(ValueError, match="angle a1 must be finite"):
            sweep_quantum_payoff(1.0, 1.7976931348623157e308, 1000)


class TestSingletCap:
    def test_random_plans_pass_the_bound_and_stay_below_nine(self):
        rng = np.random.default_rng(2024)
        half = 100_000
        uniform = rng.uniform(0.0, 2 * np.pi, size=(4, half))
        # near the ridge: the paper's plan, rotated and slightly perturbed
        paper = GeneralAnglePlan.equally_spaced(10.0 ** rng.uniform(-6.0, 0.0, half))
        plan = np.array(np.broadcast_arrays(paper.a0, paper.a1, paper.b0, paper.b1))
        rotation = rng.uniform(0.0, 2 * np.pi, half)
        scale = 10.0 ** rng.uniform(-12.0, -2.0, half)
        ridge = plan + rotation + scale * rng.standard_normal((4, half))
        profile = general_quantum_profile(
            GeneralAnglePlan(*np.concatenate([uniform, ridge], axis=1))
        )
        assert quantum_bound(profile).holds.all()
        best = payoff(profile).max()
        assert best <= 9.0 + 1e-9
        assert best > 8.9999  # the ridge half reaches close to the supremum

    def test_equally_spaced_plan_follows_the_closed_form(self):
        deltas = np.geomspace(1e-3, 1.0, 200)
        payoffs = np.array([payoff(quantum_profile(d)) for d in deltas])
        closed = (1.0 + 2.0 * np.cos(deltas)) ** 2
        assert np.all(np.abs(payoffs / closed - 1.0) <= 1e-11)
        assert np.all(payoffs < 9.0)
        assert np.all(np.diff(payoffs) < 0.0)  # rises as the spacing falls
