"""Singlet measurement law, angle plans, sampling, and the coupled strategies."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame import game
from coordgame.game import MATCH_CHUNK_ROUNDS, match_profile, payoff
from coordgame.quantum import (
    GeneralAnglePlan,
    general_quantum_profile,
    mismatch_probability,
    quantum_player_strategy,
    quantum_profile,
)
from helpers import block_schedule, played, reference_match, reference_profile

equally_spaced = GeneralAnglePlan.equally_spaced
angles = st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True)


def _projector(phi: float, sign: int) -> np.ndarray:
    """Eigenprojector of the spin observable along in-plane direction phi."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return (np.eye(2) + sign * (np.cos(phi) * sx + np.sin(phi) * sy)) / 2


def _singlet_joint_probability(phi1: float, phi2: float, s: int, t: int) -> float:
    """P(s, t) from the state vector (|01> - |10>)/sqrt(2) and projectors."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    op = np.kron(_projector(phi1, s), _projector(phi2, t))
    return float(np.real(psi.conj() @ op @ psi))


class TestSingletLawOracle:
    @given(angles, angles)
    def test_joint_law_matches_state_vector(self, phi1, phi2):
        theta = phi2 - phi1
        for s in (+1, -1):
            for t in (+1, -1):
                expected = (1 - s * t * np.cos(theta)) / 4
                assert _singlet_joint_probability(phi1, phi2, s, t) == pytest.approx(
                    expected, abs=1e-12
                )

    @given(angles, angles)
    def test_mismatch_probability_matches_state_vector(self, phi1, phi2):
        differ = _singlet_joint_probability(phi1, phi2, +1, -1) + _singlet_joint_probability(
            phi1, phi2, -1, +1
        )
        assert mismatch_probability(phi1, phi2) == pytest.approx(differ, abs=1e-12)

    def test_opposite_directions_never_mismatch(self):
        assert mismatch_probability(0.3, 0.3 + np.pi) == pytest.approx(0.0, abs=1e-30)

    def test_equal_directions_always_mismatch(self):
        assert mismatch_probability(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(angles, angles)
    def test_mismatch_probability_is_symmetric(self, phi1, phi2):
        assert mismatch_probability(phi1, phi2) == pytest.approx(
            mismatch_probability(phi2, phi1), abs=1e-15
        )

    def test_array_input_equals_scalar_calls(self):
        rng = np.random.default_rng(11)
        one = rng.uniform(-2 * np.pi, 2 * np.pi, size=(64, 1))
        two = rng.uniform(-2 * np.pi, 2 * np.pi, size=(1, 48))
        table = mismatch_probability(one, two)
        assert table.shape == (64, 48)
        scalar = np.array([[mismatch_probability(a, b) for b in two[0]] for a in one[:, 0]])
        assert np.array_equal(table.view(np.uint64), scalar.view(np.uint64))


class TestAnglePlans:
    def test_equally_spaced_angles(self):
        plan = GeneralAnglePlan.equally_spaced(0.25)
        assert plan == GeneralAnglePlan(0.0, 0.5, np.pi + 0.75, np.pi + 0.25)
        assert (plan.a0, plan.a1) == (0.0, 0.5)
        assert plan.b0 == pytest.approx(np.pi + 0.75)
        assert plan.b1 == pytest.approx(np.pi + 0.25)

    def test_equally_spaced_at_tenth(self):
        g = GeneralAnglePlan.equally_spaced(0.1)
        assert (g.a0, g.a1) == (0.0, 0.2)
        assert g.b0 == pytest.approx(np.pi + 0.3)
        assert g.b1 == pytest.approx(np.pi + 0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GeneralAnglePlan.equally_spaced(float("nan"))
        with pytest.raises(ValueError):
            GeneralAnglePlan(0.0, float("inf"), 0.0, 0.0)

    def test_overflowing_numpy_spacing_raises_without_warning(self):
        # a RuntimeWarning fails the suite, so this also checks that none is printed
        with pytest.raises(ValueError, match="angle a1 must be finite"):
            quantum_profile(np.float64(1e308))

    def test_overflowing_spacing_column_raises_without_warning(self):
        with pytest.raises(ValueError, match="angle a1 must be finite"):
            GeneralAnglePlan.equally_spaced(np.array([0.1, 1e308]))

    def test_spacing_column_gives_one_plan_per_entry(self):
        deltas = np.geomspace(1e-6, 1.0, 40)
        plans = GeneralAnglePlan.equally_spaced(deltas)
        columns = np.broadcast_arrays(plans.a0, plans.a1, plans.b0, plans.b1)
        for k, delta in enumerate(deltas):
            plan = GeneralAnglePlan.equally_spaced(float(delta))
            assert [column[k] for column in columns] == [plan.a0, plan.a1, plan.b0, plan.b1]

    @given(angles, angles, angles, angles)
    def test_mismatch_angle_linear_dependence(self, a0, a1, b0, b1):
        plan = GeneralAnglePlan(a0, a1, b0, b1)
        lhs = plan.mismatch_angle(0, 0)
        rhs = plan.mismatch_angle(0, 1) + plan.mismatch_angle(1, 0) - plan.mismatch_angle(1, 1)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestQuantumProfile:
    def test_frozen_values_at_tenth(self):
        p = quantum_profile(0.1)
        assert p.q00 == pytest.approx(0.022331755437196947, abs=1e-15)
        assert p.q01 == pytest.approx(0.002497917360987115, abs=1e-15)
        assert p.q10 == pytest.approx(p.q01, abs=1e-15)
        assert p.q11 == pytest.approx(p.q01, abs=1e-15)

    def test_frozen_values_at_fifth(self):
        p = quantum_profile(0.2)
        assert p.q00 == pytest.approx(0.087332192545161, abs=1e-13)
        assert p.q01 == pytest.approx(0.009966711079379, abs=1e-13)

    def test_matches_cosine_closed_form(self):
        for delta in (0.1, 0.3, 0.7, 1.2):
            p = quantum_profile(delta)
            assert p.q00 == pytest.approx((1 - np.cos(3 * delta)) / 2, abs=1e-15)
            assert p.q01 == pytest.approx((1 - np.cos(delta)) / 2, abs=1e-15)

    def test_payoff_equals_cosine_ratio(self):
        for delta in np.linspace(0.1, 1.5, 29):
            naive = (1 - np.cos(3 * delta)) / (1 - np.cos(delta))
            assert payoff(quantum_profile(delta)) == pytest.approx(naive, abs=1e-12)

    def test_payoff_equals_half_angle_ratio_everywhere(self):
        # rel 1e-11: the pi offset inside the direction difference costs
        # ulp(pi)/delta in relative accuracy at small spacings
        for delta in np.linspace(0.001, 1.5, 50):
            stable = np.sin(1.5 * delta) ** 2 / np.sin(0.5 * delta) ** 2
            assert payoff(quantum_profile(delta)) == pytest.approx(stable, rel=1e-11)

    def test_small_angle_expansions(self):
        # (1 - cos 3d)/2 = 9d^2/4 - (27/16)d^4 + O(d^6), so the quartic
        # remainder constant is 27/16; for (1 - cos d)/2 it is 1/48
        for delta in np.linspace(0.005, 0.1, 20):
            p = quantum_profile(delta)
            assert abs(p.q00 - 9 * delta**2 / 4) <= (27 / 16) * delta**4
            assert abs(p.q01 - delta**2 / 4) <= delta**4 / 40

    def test_column_plan_rows_equal_the_scalar_profiles_bitwise(self):
        angles = np.random.default_rng(8).uniform(-2 * np.pi, 2 * np.pi, size=(3, 64))
        columns = general_quantum_profile(GeneralAnglePlan(0.3, *angles))  # a0 is shared
        assert columns.as_array().shape == (4, 64)
        for k in range(64):
            row = general_quantum_profile(GeneralAnglePlan(0.3, *angles[:, k].tolist()))
            assert columns.as_array()[:, k].tobytes() == row.as_array().tobytes()

    def test_general_profile_agrees_with_plan_directions(self):
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        p = general_quantum_profile(plan)
        assert p.q00 == pytest.approx(mismatch_probability(0.3, 2.9), abs=1e-15)
        assert p.q11 == pytest.approx(mismatch_probability(1.1, 4.0), abs=1e-15)


def _batch(one, two, states_one, states_two, first_round=0):
    """Both players' moves for one batch of consecutive rounds, player one first."""
    rounds = np.arange(first_round, first_round + len(states_one))
    return one.moves(states_one, rounds), two.moves(states_two, rounds)


def _pattern(m: int, period: int) -> np.ndarray:
    """A 0/1 state column of length m that is 1 on every ``period``-th round."""
    return (np.arange(m) % period == 0).astype(np.uint8)


class TestSampler:
    """The singlet randomness that ``quantum_player_strategy(plan, seed)`` owns."""

    def test_deterministic_per_seed(self):
        states = _pattern(100, 3), _pattern(100, 2)
        a = _batch(*quantum_player_strategy(equally_spaced(0.3), 42), *states)
        b = _batch(*quantum_player_strategy(equally_spaced(0.3), 42), *states)
        c = _batch(*quantum_player_strategy(equally_spaced(0.3), 43), *states)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])

    def test_stream_is_stateful(self):
        one, two = quantum_player_strategy(equally_spaced(0.3), 0)
        states = _pattern(50, 3), _pattern(50, 2)
        first = _batch(one, two, *states)
        second = _batch(one, two, *states, first_round=50)
        assert not np.array_equal(first[0], second[0])
        assert not np.array_equal(first[1], second[1])

    def test_draw_shapes(self):
        states = _pattern(7, 2)
        move_one, move_two = _batch(*quantum_player_strategy(equally_spaced(0.3), 1), states, states)
        assert move_one.shape == move_two.shape == (7,)
        assert move_one.dtype == move_two.dtype == np.uint8

    @pytest.mark.parametrize("a, b", [(1, 1), (7, 993), (65_536, 17)])
    def test_split_draws_equal_one_draw(self, a, b):
        states_one, states_two = _pattern(a + b, 3), _pattern(a + b, 2)
        one, two = quantum_player_strategy(equally_spaced(0.3), 12)
        head = _batch(one, two, states_one[:a], states_two[:a])
        tail = _batch(one, two, states_one[a:], states_two[a:], first_round=a)
        whole = _batch(*quantum_player_strategy(equally_spaced(0.3), 12), states_one, states_two)
        assert np.array_equal(np.concatenate([head[0], tail[0]]), whole[0])
        assert np.array_equal(np.concatenate([head[1], tail[1]]), whole[1])

    def test_streams_are_distinct(self):
        # every q is 1/2 on this plan, so the moves differ exactly when
        # v >= 1/2; were u and v one stream, player two would always play A
        plan = GeneralAnglePlan(0.0, 0.0, np.pi / 2, np.pi / 2)
        assert general_quantum_profile(plan).as_array() == pytest.approx([0.5] * 4)
        zeros = np.zeros(100, dtype=np.uint8)
        _, move_two = _batch(*quantum_player_strategy(plan, 0), zeros, zeros)
        assert 0 < np.count_nonzero(move_two) < 100


def _joint_outcomes(dir_one: float, dir_two: float, m: int, seed: int) -> dict:
    """Counts of the (player one, player two) outcome signs over m all-zero rounds.

    Each player measures along one direction in every state; a positive
    sign is move A.
    """
    plan = GeneralAnglePlan(dir_one, dir_one, dir_two, dir_two)
    one, two = quantum_player_strategy(plan, seed)
    rec = reference_match(one, two, np.zeros((m, 2), dtype=np.uint8))
    counts = np.bincount(2 * rec.move_one + rec.move_two, minlength=4)
    return dict(zip([(+1, +1), (+1, -1), (-1, +1), (-1, -1)], counts.tolist()))


class TestJointOutcomes:
    def test_frequencies_follow_joint_law(self):
        theta, m = 2.0, 100_000
        observed = _joint_outcomes(0.0, theta, m, seed=0)
        law = {
            (+1, +1): (1 - np.cos(theta)) / 4,
            (+1, -1): (1 + np.cos(theta)) / 4,
            (-1, +1): (1 + np.cos(theta)) / 4,
            (-1, -1): (1 - np.cos(theta)) / 4,
        }
        assert sum(observed.values()) == m
        for key, p in law.items():
            sigma = np.sqrt(p * (1 - p) / m)
            assert abs(observed[key] / m - p) < 4 * sigma

    def test_correlator_is_minus_cos_theta(self):
        theta, m = 0.8, 100_000
        c = _joint_outcomes(0.5, 0.5 + theta, m, seed=3)
        corr = sum(s * t * n for (s, t), n in c.items()) / m
        sigma = np.sqrt((1 - np.cos(theta) ** 2) / m)
        assert abs(corr - (-np.cos(theta))) < 4 * sigma

    @pytest.mark.parametrize("a, b, seed", [(0.0, 2.0, 0), (0.5, 1.3, 3), (1.0, 1.0 + np.pi, 5)])
    def test_counts_equal_the_coupled_strategies_moves(self, a, b, seed):
        m = 5000
        counts = _joint_outcomes(a, b, m, seed)
        one, two = quantum_player_strategy(GeneralAnglePlan(a, a, b, b), seed)
        states, rounds = np.zeros(m, dtype=np.uint8), np.arange(m)
        move_one = one.moves(states, rounds).astype(bool)
        move_two = two.moves(states, rounds).astype(bool)
        assert counts == {
            (+1, +1): int(np.count_nonzero(~move_one & ~move_two)),
            (+1, -1): int(np.count_nonzero(~move_one & move_two)),
            (-1, +1): int(np.count_nonzero(move_one & ~move_two)),
            (-1, -1): int(np.count_nonzero(move_one & move_two)),
        }

    def test_both_marginals_are_fair(self):
        m = 100_000
        c = _joint_outcomes(0.0, 1.3, m, seed=5)
        sigma = np.sqrt(0.25 / m)
        assert abs((c[+1, +1] + c[+1, -1]) / m - 0.5) < 4 * sigma
        assert abs((c[+1, +1] + c[-1, +1]) / m - 0.5) < 4 * sigma


class TestCoupledStrategies:
    def test_match_reproduces_analytic_profile(self):
        delta, rounds = 0.5, 20_000
        one, two = quantum_player_strategy(equally_spaced(delta), 7)
        emp = match_profile(one, two, rounds)
        ana = quantum_profile(delta)
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            sigma = np.sqrt(ana.entry(i, j) * (1 - ana.entry(i, j)) / rounds)
            assert abs(emp.entry(i, j) - ana.entry(i, j)) < 4 * sigma

    def test_deterministic_for_fixed_seeds(self):
        a = played(*quantum_player_strategy(equally_spaced(0.3), 9), 500)
        b = played(*quantum_player_strategy(equally_spaced(0.3), 9), 500)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_player_one_moves_independent_of_plan(self):
        # Player one's outcome is a bare coin: changing every measurement
        # direction leaves its move sequence bit-for-bit unchanged.
        one_a, two_a = played(*quantum_player_strategy(equally_spaced(0.1), 4), 1000)
        one_b, two_b = played(*quantum_player_strategy(equally_spaced(1.0), 4), 1000)
        assert np.array_equal(one_a, one_b)
        assert not np.array_equal(two_a, two_b)

    def test_player_one_moves_independent_of_partner_states(self):
        n = 1000
        sched_a = np.zeros((n, 2), dtype=np.uint8)
        sched_b = np.zeros((n, 2), dtype=np.uint8)
        sched_b[:, 1] = 1  # only player two's scheduled states change
        rec_a = reference_match(*quantum_player_strategy(equally_spaced(0.4), 2), sched_a)
        rec_b = reference_match(*quantum_player_strategy(equally_spaced(0.4), 2), sched_b)
        assert np.array_equal(rec_a.move_one, rec_b.move_one)

    def test_player_two_marginal_is_fair_under_either_partner_state(self):
        n = 50_000
        for own_state_of_one in (0, 1):
            sched = np.zeros((n, 2), dtype=np.uint8)
            sched[:, 0] = own_state_of_one
            rec = reference_match(
                *quantum_player_strategy(equally_spaced(0.7), 8), sched
            )
            freq = rec.move_two.mean()
            assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_player_two_cannot_measure_first(self):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        with pytest.raises(RuntimeError):
            two.moves(np.zeros(4, dtype=np.uint8), np.arange(4))

    def test_players_must_share_round_batches(self):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        one.moves(np.zeros(4, dtype=np.uint8), np.arange(4))
        with pytest.raises(RuntimeError):
            two.moves(np.zeros(4, dtype=np.uint8), np.arange(1, 5))

    def test_players_must_share_read_only_round_batches(self):
        # player one holds read-only indices that own their memory instead
        # of a copy; player two's different indices are still rejected
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        first, other = np.arange(4), np.arange(1, 5)
        first.setflags(write=False)
        other.setflags(write=False)
        one.moves(np.zeros(4, dtype=np.uint8), first)
        with pytest.raises(RuntimeError):
            two.moves(np.zeros(4, dtype=np.uint8), other)

    def test_a_read_only_view_is_copied_before_its_base_changes(self):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        base = np.arange(4)
        rounds = base[:]
        rounds.setflags(write=False)
        one.moves(np.zeros(4, dtype=np.uint8), rounds)
        base[0] = 7  # the view now reads other rounds than player one consumed
        with pytest.raises(RuntimeError):
            two.moves(np.zeros(4, dtype=np.uint8), rounds)

    @pytest.mark.parametrize("bad_player", [1, 2])
    def test_rejects_a_state_above_one(self, bad_player):
        # the flat p_same table would read a state pair (0, 2) as (1, 0)
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        states = {1: np.zeros(4, dtype=np.uint8), 2: np.zeros(4, dtype=np.uint8)}
        states[bad_player][1] = 2
        one.moves(states[1], np.arange(4))
        with pytest.raises(ValueError, match="states must be 0 or 1"):
            two.moves(states[2], np.arange(4))

    @pytest.mark.parametrize("bad_player", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [np.array([0, -1, 0, 0], dtype=np.int64), np.array([0, 0.5, 0, 0])],
        ids=["minus-one-int64", "half-float"],
    )
    def test_rejects_a_signed_or_fractional_state(self, bad_player, bad):
        # -1 would index p_same from its end, and 0.5 cannot index it at all
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        states = {1: np.zeros(4, dtype=np.uint8), 2: np.zeros(4, dtype=np.uint8), bad_player: bad}
        one.moves(states[1], np.arange(4))
        with pytest.raises(ValueError, match="states must be 0 or 1"):
            two.moves(states[2], np.arange(4))

    @pytest.mark.parametrize("chunk", [MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
    def test_match_profile_equals_profile_of_recorded_match(self, monkeypatch, chunk):
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
        r = 3 * chunk + 17  # block and chunk boundaries cut each other raggedly
        plan = equally_spaced(0.6)
        recorded = reference_profile(
            reference_match(*quantum_player_strategy(plan, 6), block_schedule(r))
        )
        counted = match_profile(*quantum_player_strategy(plan, 6), r)
        assert counted == recorded

    def test_moves_follow_the_sign_formulation(self):
        # Reference: outcome signs s = +1 iff u < 0.5 and t = s iff
        # v < sin^2((b - a) / 2), per round; move B iff the sign is negative.
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        states_one = np.array([0, 0, 1, 1, 0, 1, 1, 0] * 50, dtype=np.uint8)
        states_two = np.array([0, 1, 0, 1, 1, 1, 0, 0] * 50, dtype=np.uint8)
        rounds = np.arange(len(states_one))
        one, two = quantum_player_strategy(plan, 3)
        move_one = one.moves(states_one, rounds)
        move_two = two.moves(states_two, rounds)

        # the strategy pair's two coin streams, derived from its seed
        rng_u, rng_v = map(np.random.default_rng, np.random.SeedSequence(3).spawn(2))
        u, v = rng_u.random(len(rounds)), rng_v.random(len(rounds))
        a = np.where(states_one == 0, plan.a0, plan.a1)
        b = np.where(states_two == 0, plan.b0, plan.b1)
        s = np.where(u < 0.5, 1, -1)
        t = np.where(v < np.sin(0.5 * (b - a)) ** 2, s, -s)
        assert np.array_equal(move_one, s < 0)
        assert np.array_equal(move_two, t < 0)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["00", "01", "10", "11"])
    def test_constant_batch_follows_the_sign_formulation(self, pair):
        # each block-schedule chunk: one threshold for the whole batch
        states_one, states_two = (np.full(300, state, dtype=np.uint8) for state in pair)
        self._assert_sign_formulation(states_one, states_two)

    @pytest.mark.parametrize("constant_player", [1, 2])
    def test_batch_constant_for_one_player_follows_the_sign_formulation(self, constant_player):
        states = {1: _pattern(300, 3), 2: _pattern(300, 2)}
        states[constant_player] = np.ones(300, dtype=np.int64)
        self._assert_sign_formulation(states[1], states[2])

    @staticmethod
    def _assert_sign_formulation(states_one, states_two):
        # The reference of test_moves_follow_the_sign_formulation, over two
        # consecutive batches, so the second starts mid-stream.
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        one, two = quantum_player_strategy(plan, 5)
        head = _batch(one, two, states_one[:100], states_two[:100])
        tail = _batch(one, two, states_one[100:], states_two[100:], first_round=100)

        rng_u, rng_v = map(np.random.default_rng, np.random.SeedSequence(5).spawn(2))
        u, v = rng_u.random(len(states_one)), rng_v.random(len(states_one))
        a = np.where(states_one == 0, plan.a0, plan.a1)
        b = np.where(states_two == 0, plan.b0, plan.b1)
        s = np.where(u < 0.5, 1, -1)
        t = np.where(v < np.sin(0.5 * (b - a)) ** 2, s, -s)
        assert np.array_equal(np.concatenate([head[0], tail[0]]), s < 0)
        assert np.array_equal(np.concatenate([head[1], tail[1]]), t < 0)

    @pytest.mark.parametrize("rounds", [3, 5])
    def test_player_one_rejects_states_and_rounds_of_different_lengths(self, rounds):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        states = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError, match="must be columns of one length"):
            one.moves(states, np.arange(rounds))
        # the rejected batch drew no coins
        fresh = _batch(*quantum_player_strategy(equally_spaced(0.2), 0), states, states)
        assert all(np.array_equal(x, y) for x, y in zip(_batch(one, two, states, states), fresh))

    @pytest.mark.parametrize("rounds", [3, 5])
    def test_player_two_rejects_states_and_rounds_of_different_lengths(self, rounds):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        one.moves(np.zeros(rounds, dtype=np.uint8), np.arange(rounds))
        with pytest.raises(ValueError, match="must be columns of one length"):
            two.moves(np.zeros(4, dtype=np.uint8), np.arange(rounds))

    def test_match_profile_memory_is_bounded(self):
        # one and ten million rounds in under 1 MiB: nothing grows with the match
        for rounds_per_pair in (250_000, 2_500_000):
            one, two = quantum_player_strategy(equally_spaced(0.1), 0)
            tracemalloc.start()
            try:
                match_profile(one, two, rounds_per_pair)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, rounds_per_pair

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_match_profile_reuses_its_chunk_buffers(self):
        # Chunk temporaries below glibc's mmap threshold come back from the
        # heap; 512 KiB ones were mapped and faulted in afresh per chunk
        # (about 18 000 minor faults for these 4e6 rounds).
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from coordgame.game import match_profile\n"
            "from coordgame.quantum import GeneralAnglePlan, quantum_player_strategy\n"
            "plan = GeneralAnglePlan.equally_spaced(0.1)\n"
            "one, two = quantum_player_strategy(plan, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "match_profile(one, two, 10**6)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2_000

    def test_accepts_general_plan(self):
        plan = GeneralAnglePlan(0.0, 0.2, np.pi + 0.3, np.pi + 0.1)
        one, two = quantum_player_strategy(plan, 1)
        move_one, move_two = played(one, two, 10)
        assert len(move_one) == len(move_two) == 40
