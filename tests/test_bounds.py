"""Bound inequalities, vertex enumeration, mixtures, sweeps, and angle search."""

import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import coordgame
from coordgame import bounds
from coordgame.bounds import (
    BOUND_TOLERANCE,
    BoundVerdict,
    DeterministicStrategyPair,
    LhvMixture,
    SweepTable,
    classical_bound,
    enumerate_deterministic_pairs,
    lhv_profile,
    lhv_supremum_payoff,
    optimize_general_angles,
    quantum_bound,
    sweep_quantum_payoff,
)
from coordgame.game import MismatchProfile, Move, payoff
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
        verdict = classical_bound(SimpleNamespace(q00=q[0], q01=q[1], q10=q[2], q11=q[3]))
        rows = [classical_bound(MismatchProfile(*map(float, column))) for column in q.T]
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
        pairs = enumerate_deterministic_pairs()
        assert len(pairs) == 16
        assert len({(p.m1, p.m2) for p, _ in pairs}) == 16

    def test_constant_pairs(self):
        lookup = {(p.m1, p.m2): prof for p, prof in enumerate_deterministic_pairs()}
        aa = (Move.A, Move.A)
        bb = (Move.B, Move.B)
        assert lookup[(aa, aa)] == MismatchProfile(0, 0, 0, 0)
        assert lookup[(aa, bb)] == MismatchProfile(1, 1, 1, 1)

    def test_profiles_are_indicator_tables(self):
        for pair, prof in enumerate_deterministic_pairs():
            for i in (0, 1):
                for j in (0, 1):
                    assert prof.entry(i, j) == float(pair.m1[i] != pair.m2[j])

    def test_every_vertex_satisfies_classical_bound(self):
        for _, prof in enumerate_deterministic_pairs():
            assert classical_bound(prof).holds

    def test_mismatch_profile_method_matches_enumeration(self):
        pair = DeterministicStrategyPair(m1=(Move.A, Move.B), m2=(Move.B, Move.B))
        assert pair.mismatch_profile() == MismatchProfile(1, 1, 0, 0)


def _corrupted_pairs():
    """The vertex table with vertex 0's indicator replaced by (1, 0, 0, 0)."""
    pairs = enumerate_deterministic_pairs()
    pairs[0] = (pairs[0][0], MismatchProfile(1.0, 0.0, 0.0, 0.0))
    return pairs


class TestMixtures:
    def test_point_mass_on_constant_pair(self):
        w = np.zeros(16)
        w[0] = 1.0  # enumeration starts at (m1=AA, m2=AA)
        assert lhv_profile(LhvMixture(weights=w)) == MismatchProfile(0, 0, 0, 0)

    def test_uniform_mixture_averages_to_half(self):
        prof = lhv_profile(LhvMixture(weights=np.full(16, 1 / 16)))
        assert prof == MismatchProfile(0.5, 0.5, 0.5, 0.5)

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            LhvMixture(weights=np.full(16, 0.1))
        with pytest.raises(ValueError):
            LhvMixture(weights=np.array([1.5, -0.5] + [0.0] * 14))
        with pytest.raises(ValueError):
            LhvMixture(weights=np.full(8, 0.125))

    def test_callers_array_stays_writable(self):
        w = np.full(16, 1 / 16)
        mixture = LhvMixture(weights=w)
        assert w.flags.writeable
        w[0] = 0.5  # later writes by the caller do not reach the mixture
        assert mixture.weights[0] == 1 / 16
        with pytest.raises(ValueError):
            mixture.weights[0] = 0.5

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=16, max_size=16).filter(lambda w: sum(w) > 1e-6))
    def test_every_mixture_satisfies_classical_bound(self, raw):
        w = np.array(raw) / np.sum(raw)
        w = w / w.sum()  # renormalize twice to land within 1e-12 of the simplex
        assert classical_bound(lhv_profile(LhvMixture(weights=w))).holds


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
        assert witness.weights.sum() == pytest.approx(1.0, abs=1e-15)
        assert witness.weights.min() >= 0.0

    def test_corrupted_vertex_table_raises(self, monkeypatch):
        monkeypatch.setattr(bounds, "enumerate_deterministic_pairs", _corrupted_pairs)
        with pytest.raises(RuntimeError, match="vertex bound broken"):
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
            pairs = bounds.enumerate_deterministic_pairs()
            pairs[0] = (pairs[0][0], MismatchProfile(1.0, 0.0, 0.0, 0.0))
            bounds.enumerate_deterministic_pairs = lambda: pairs
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
        q = weights @ bounds._vertex_matrix()
        best = payoff(SimpleNamespace(q00=q[:, 0], q01=q[:, 1], q10=q[:, 2], q11=q[:, 3])).max()
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
        table = sweep_quantum_payoff(0.1, 0.5, 5)
        assert len(table) == 5
        assert table.deltas == pytest.approx(np.linspace(0.1, 0.5, 5))

    def test_every_row_equals_the_scalar_profile(self):
        table = sweep_quantum_payoff(0.01, 1.0, 101)
        for k, delta in enumerate(table.deltas):
            profile = quantum_profile(float(delta))
            row = MismatchProfile(table.q00[k], table.q01[k], table.q10[k], table.q11[k])
            assert row == profile
            assert table.payoffs[k] == payoff(profile)

    def test_columns_are_read_only(self):
        table = sweep_quantum_payoff(0.1, 0.5, 5)
        for column in (table.deltas, table.q00, table.q01, table.q10, table.q11, table.payoffs):
            with pytest.raises(ValueError):
                column[0] = 0.5

    def test_payoff_column_matches_ratio(self):
        table = sweep_quantum_payoff(0.2, 1.0, 9)
        for delta, value in zip(table.deltas, table.payoffs):
            assert value == pytest.approx(
                (1 - np.cos(3 * delta)) / (1 - np.cos(delta)), abs=1e-12
            )

    def test_payoff_strictly_decreasing_on_unit_grid(self):
        table = sweep_quantum_payoff(0.01, 1.0, 100)
        assert np.all(np.diff(table.payoffs) < 0)
        assert table.payoffs[0] >= 8.999

    def test_exact_value_at_pi_thirds(self):
        assert payoff(quantum_profile(np.pi / 3)) == pytest.approx(4.0, abs=1e-12)

    def test_table_rejects_unsorted_rows(self):
        q = [quantum_profile(0.2).as_array(), quantum_profile(0.1).as_array()]
        q00, q01, q10, q11 = np.transpose(q)
        with pytest.raises(ValueError, match="strictly sorted"):
            SweepTable(deltas=[0.2, 0.1], q00=q00, q01=q01, q10=q10, q11=q11)

    def test_table_rejects_columns_of_unequal_length(self):
        q = np.full(2, 0.1)
        with pytest.raises(ValueError, match="one length"):
            SweepTable(deltas=[0.1, 0.2, 0.3], q00=q, q01=q, q10=q, q11=q)


class TestAngleSearch:
    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            optimize_general_angles(resolution=7)

    def test_default_search_result(self):
        result = optimize_general_angles()
        assert result.payoff <= 9.0 + 1e-6
        assert result.payoff >= 8.5  # resolution-limited approach to the supremum
        assert not result.near_degenerate
        assert result.plan.a0 == 0.0
        assert quantum_bound(general_quantum_profile(result.plan)).holds

    def test_degenerate_result_reports_nan(self, monkeypatch):
        zero = MismatchProfile(0.0, 0.0, 0.0, 0.0)
        monkeypatch.setattr(bounds, "general_quantum_profile", lambda plan: zero)
        result = optimize_general_angles(resolution=8, refine_iters=1)
        assert np.isnan(result.payoff)
        assert result.near_degenerate

    def test_coarse_search_still_bounded(self):
        result = optimize_general_angles(resolution=8, refine_iters=20)
        assert 1.0 <= result.payoff <= 9.0 + 1e-6
        assert quantum_bound(general_quantum_profile(result.plan)).holds
