"""Singlet measurement law, angle plans, sampling, and the coupled strategies."""

import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame import game, quantum
from coordgame.game import MATCH_CHUNK_ROUNDS, match_profile, payoff
from coordgame.quantum import (
    GeneralAnglePlan,
    general_quantum_profile,
    mismatch_probability,
    quantum_match_profile,
    quantum_player_strategy,
    quantum_profile,
)
from helpers import played, reference_match, reference_profile

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
        # the direction difference b_j - a_i of state pair (i, j), from the plan's fields
        plan = GeneralAnglePlan(a0, a1, b0, b1)
        lhs = plan.b0 - plan.a0
        rhs = (plan.b1 - plan.a0) + (plan.b0 - plan.a1) - (plan.b1 - plan.a1)
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
        assert columns.q.shape == (4, 64)
        for k in range(64):
            row = general_quantum_profile(GeneralAnglePlan(0.3, *angles[:, k].tolist()))
            assert columns.q[:, k].tobytes() == row.q.tobytes()

    @given(
        st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 4),
        st.lists(st.tuples(*[st.floats(min_value=-1e3, max_value=1e3)] * 4), min_size=1, max_size=8),
    )
    def test_profile_array_equals_the_four_law_calls_bitwise(self, scalar, rows):
        # the tabulation used while a profile held four separate fields,
        # one float per law call on a scalar plan
        for a0, a1, b0, b1 in (scalar, np.array(rows).T):
            expected = [
                mismatch_probability(a0, b0),
                mismatch_probability(a0, b1),
                mismatch_probability(a1, b0),
                mismatch_probability(a1, b1),
            ]
            q = general_quantum_profile(GeneralAnglePlan(a0, a1, b0, b1)).q
            assert q.tobytes() == np.array(expected, dtype=float).tobytes()

    @pytest.mark.parametrize("seed", [3, 0])  # quantum_seed3.json and match_quantum.csv
    def test_sampling_thresholds_are_one_minus_the_profile_bitwise(self, seed):
        plan = equally_spaced(0.1)
        p_same = quantum._SingletSource(plan, seed)._p_same
        assert p_same.tobytes() == (1 - general_quantum_profile(plan).q).tobytes()
        law = [float(mismatch_probability(a, b)) for a in (plan.a0, plan.a1) for b in (plan.b0, plan.b1)]
        assert p_same.tobytes() == (1.0 - np.array(law)).tobytes()

    def test_general_profile_agrees_with_plan_directions(self):
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        p = general_quantum_profile(plan)
        assert p.q00 == pytest.approx(mismatch_probability(0.3, 2.9), abs=1e-15)
        assert p.q11 == pytest.approx(mismatch_probability(1.1, 4.0), abs=1e-15)


def _chunk(one, two, n, state_one=0, state_two=0, start=0):
    """Both players' moves for one chunk of n rounds from ``start``, player one first."""
    return one.moves(start, n, state_one), two.moves(start, n, state_two)


class TestSampler:
    """The singlet randomness that ``quantum_player_strategy(plan, seed)`` owns."""

    def test_deterministic_per_seed(self):
        a = _chunk(*quantum_player_strategy(equally_spaced(0.3), 42), 100, 1, 0)
        b = _chunk(*quantum_player_strategy(equally_spaced(0.3), 42), 100, 1, 0)
        c = _chunk(*quantum_player_strategy(equally_spaced(0.3), 43), 100, 1, 0)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0]) and not np.array_equal(a[1], c[1])

    def test_stream_is_stateful(self):
        one, two = quantum_player_strategy(equally_spaced(0.3), 0)
        first = _chunk(one, two, 50, 1, 0)
        second = _chunk(one, two, 50, 1, 0, start=50)
        assert not np.array_equal(first[0], second[0])
        assert not np.array_equal(first[1], second[1])

    def test_draw_shapes(self):
        move_one, move_two = _chunk(*quantum_player_strategy(equally_spaced(0.3), 1), 7, 1, 1)
        assert move_one.shape == move_two.shape == (7,)
        assert move_one.dtype == move_two.dtype == np.uint8

    @pytest.mark.parametrize("a, b", [(1, 1), (7, 993), (65_536, 17)])
    def test_split_draws_equal_one_draw(self, a, b):
        one, two = quantum_player_strategy(equally_spaced(0.3), 12)
        head = _chunk(one, two, a, 0, 1)
        tail = _chunk(one, two, b, 0, 1, start=a)
        whole = _chunk(*quantum_player_strategy(equally_spaced(0.3), 12), a + b, 0, 1)
        assert np.array_equal(np.concatenate([head[0], tail[0]]), whole[0])
        assert np.array_equal(np.concatenate([head[1], tail[1]]), whole[1])

    def test_streams_are_distinct(self):
        # every q is 1/2 on this plan, so the moves differ exactly when
        # v >= 1/2; were u and v one stream, player two would always play A
        plan = GeneralAnglePlan(0.0, 0.0, np.pi / 2, np.pi / 2)
        assert general_quantum_profile(plan).q == pytest.approx([0.5] * 4)
        _, move_two = _chunk(*quantum_player_strategy(plan, 0), 100)
        assert 0 < np.count_nonzero(move_two) < 100


def _joint_outcomes(dir_one: float, dir_two: float, m: int, seed: int) -> dict:
    """Counts of the (player one, player two) outcome signs over m all-zero rounds.

    Each player measures along one direction in every state; a positive
    sign is move A.
    """
    plan = GeneralAnglePlan(dir_one, dir_one, dir_two, dir_two)
    move_one, move_two = _chunk(*quantum_player_strategy(plan, seed), m)
    counts = np.bincount(2 * move_one + move_two, minlength=4)
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
        move_one = one.moves(0, m, 0).astype(bool)
        move_two = two.moves(0, m, 0).astype(bool)
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
        assert emp.q.shape == ana.q.shape == (4,)
        for e, a in zip(emp.q, ana.q):
            sigma = np.sqrt(a * (1 - a) / rounds)
            assert abs(e - a) < 4 * sigma

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
        one_a, _ = _chunk(*quantum_player_strategy(equally_spaced(0.4), 2), n, 0, 0)
        one_b, _ = _chunk(*quantum_player_strategy(equally_spaced(0.4), 2), n, 0, 1)  # only player two's state changes
        assert np.array_equal(one_a, one_b)

    def test_player_two_marginal_is_fair_under_either_partner_state(self):
        n = 50_000
        for own_state_of_one in (0, 1):
            _, move_two = _chunk(*quantum_player_strategy(equally_spaced(0.7), 8), n, own_state_of_one, 0)
            freq = move_two.mean()
            assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / n)

    def test_player_two_cannot_measure_first(self):
        one, two = quantum_player_strategy(equally_spaced(0.2), 0)
        with pytest.raises(RuntimeError):
            two.moves(0, 4, 0)

    def test_players_must_share_round_batches(self):
        for start, n in ((1, 4), (0, 3), (0, 5)):  # shifted, shorter, longer
            one, two = quantum_player_strategy(equally_spaced(0.2), 0)
            one.moves(0, 4, 0)
            with pytest.raises(RuntimeError, match="same singlet rounds"):
                two.moves(start, n, 0)

    @pytest.mark.parametrize("spoil", ["bad-state", "other-rounds"])
    def test_a_rejected_chunk_is_spent(self, spoil):
        # player two cannot retry a chunk and so read its coins twice; the
        # next chunk continues both coin streams where the spent one ended
        plan = equally_spaced(0.2)
        one, two = quantum_player_strategy(plan, 0)
        one.moves(0, 4, 0)
        with pytest.raises(ValueError if spoil == "bad-state" else RuntimeError):
            two.moves(*((0, 4, 2) if spoil == "bad-state" else (0, 5, 0)))
        with pytest.raises(RuntimeError, match="player one must measure"):
            two.moves(0, 4, 0)
        whole_one, whole_two = quantum_player_strategy(plan, 0)
        whole = _chunk(whole_one, whole_two, 10, 1, 1)
        later = _chunk(one, two, 6, 1, 1, start=4)
        assert np.array_equal(later[0], whole[0][4:])
        assert np.array_equal(later[1], whole[1][4:])

    def test_player_one_moves_are_read_only(self):
        # they share memory with the chunk that player two's moves are drawn against
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        one, two = quantum_player_strategy(plan, 5)
        move_one = one.moves(0, 300, 1)
        assert not move_one.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            move_one[:] = 1 - move_one
        move_two = two.moves(0, 300, 0)
        states_one, states_two = np.ones(300, dtype=np.uint8), np.zeros(300, dtype=np.uint8)
        self._assert_sign_formulation(plan, 5, states_one, states_two, move_one, move_two)

    @pytest.mark.parametrize("chunk", [MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
    def test_match_profile_equals_profile_of_recorded_match(self, monkeypatch, chunk):
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
        r = 3 * chunk + 17  # block and chunk boundaries cut each other raggedly
        plan = equally_spaced(0.6)
        recorded = reference_profile(reference_match(*quantum_player_strategy(plan, 6), r))
        counted = match_profile(*quantum_player_strategy(plan, 6), r)
        assert counted == recorded

    def test_moves_follow_the_sign_formulation(self):
        # Reference: outcome signs s = +1 iff u < 0.5 and t = s iff
        # v < sin^2((b - a) / 2), per round; move B iff the sign is negative.
        # The states change from chunk to chunk, one chunk per run of a state pair.
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        states_one = np.array([0, 0, 1, 1, 0, 1, 1, 0] * 50, dtype=np.uint8)
        states_two = np.array([0, 1, 0, 1, 1, 1, 0, 0] * 50, dtype=np.uint8)
        pairs = 2 * states_one + states_two
        cuts = [0, *(np.flatnonzero(pairs[1:] != pairs[:-1]) + 1), len(pairs)]
        one, two = quantum_player_strategy(plan, 3)
        chunks = [
            _chunk(one, two, stop - start, int(states_one[start]), int(states_two[start]), start)
            for start, stop in zip(cuts[:-1], cuts[1:])
        ]
        move_one = np.concatenate([c[0] for c in chunks])
        move_two = np.concatenate([c[1] for c in chunks])
        self._assert_sign_formulation(plan, 3, states_one, states_two, move_one, move_two)

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["00", "01", "10", "11"])
    def test_constant_batch_follows_the_sign_formulation(self, pair):
        # each block-schedule chunk: one threshold for the whole chunk, over
        # two consecutive chunks, so the second starts mid-stream
        plan = GeneralAnglePlan(0.3, 1.1, 2.9, 4.0)
        one, two = quantum_player_strategy(plan, 5)
        head = _chunk(one, two, 100, *pair)
        tail = _chunk(one, two, 200, *pair, start=100)
        states_one, states_two = (np.full(300, state, dtype=np.uint8) for state in pair)
        move_one, move_two = np.concatenate([head[0], tail[0]]), np.concatenate([head[1], tail[1]])
        self._assert_sign_formulation(plan, 5, states_one, states_two, move_one, move_two)

    @staticmethod
    def _assert_sign_formulation(plan, seed, states_one, states_two, move_one, move_two):
        # the strategy pair's two coin streams, derived from its seed
        rng_u, rng_v = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        u, v = rng_u.random(len(states_one)), rng_v.random(len(states_one))
        a = np.where(states_one == 0, plan.a0, plan.a1)
        b = np.where(states_two == 0, plan.b0, plan.b1)
        s = np.where(u < 0.5, 1, -1)
        t = np.where(v < np.sin(0.5 * (b - a)) ** 2, s, -s)
        assert np.array_equal(move_one, s < 0)
        assert np.array_equal(move_two, t < 0)

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


# a threshold of exactly 0 at (0,0), where a0 = b0, and of exactly 1 at (1,1), where b1 = a1 + pi
EDGE_PLAN = GeneralAnglePlan(0.3, 1.1, 0.3, 1.1 + np.pi)


class TestQuantumMatchProfile:
    """The singlet count, which reads player two's coins alone."""

    def test_edge_plan_has_thresholds_of_exactly_zero_and_one(self):
        p_same = quantum._SingletSource(EDGE_PLAN, 0)._p_same
        assert p_same[0] == 0.0 and p_same[3] == 1.0
        assert quantum_match_profile(EDGE_PLAN, 0, 100).q[[0, 3]].tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("chunk", [MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
    @pytest.mark.parametrize(
        "plan",
        [equally_spaced(0.1), GeneralAnglePlan(0.3, 1.1, 2.9, 4.0), EDGE_PLAN],
        ids=["equally-spaced", "general", "edge-thresholds"],
    )
    def test_equals_match_profile_of_the_strategy_pair_bitwise(self, monkeypatch, chunk, plan):
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
        for seed in (0, 5, 2**70 + 3):
            for r in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 17):
                counted = quantum_match_profile(plan, seed, r)
                played_profile = match_profile(*quantum_player_strategy(plan, seed), r)
                assert counted.q.tobytes() == played_profile.q.tobytes(), (seed, r)

    def test_draws_no_coin_of_player_one(self, monkeypatch):
        expected = match_profile(*quantum_player_strategy(equally_spaced(0.4), 8), 1000)

        def no_measure(*args):
            raise AssertionError("a count drew player one's coins")

        sources, init = [], quantum._SingletSource.__init__

        def recorded_init(source, *args):
            init(source, *args)
            sources.append(source)

        monkeypatch.setattr(quantum._SingletSource, "__init__", recorded_init)
        monkeypatch.setattr(quantum._SingletSource, "measure_one", no_measure)
        monkeypatch.setattr(quantum._SingletSource, "measure_two", no_measure)
        assert quantum_match_profile(equally_spaced(0.4), 8, 1000) == expected
        # the u stream is still at its start: not one coin of it was drawn
        (source,) = sources
        unspent = np.random.default_rng(np.random.SeedSequence(8).spawn(2)[0])
        assert source._rng_u.bit_generator.state == unspent.bit_generator.state

    @pytest.mark.parametrize("r", [10, 2**61 + 1], ids=["valid", "beyond-int64"])
    def test_a_negative_seed_raises_first_before_any_draw(self, monkeypatch, r):
        # in the order of match_profile(*quantum_player_strategy(plan, seed), r):
        # the seed's error comes before the round count's
        with pytest.raises(ValueError) as played_error:
            match_profile(*quantum_player_strategy(equally_spaced(0.3), -1), r)

        def no_draw(*args):
            raise AssertionError("a rejected count must draw no coin")

        monkeypatch.setattr(quantum._SingletSource, "count_mismatches", no_draw)
        with pytest.raises(ValueError) as counted_error:
            quantum_match_profile(equally_spaced(0.3), -1, r)
        assert str(counted_error.value) == str(played_error.value)

    def test_quantum_match_profile_memory_is_bounded(self):
        # ten million rounds in under 1 MiB: nothing grows with the match
        quantum_match_profile(equally_spaced(0.1), 0, 8)  # numpy.random loads on first use
        tracemalloc.start()
        try:
            quantum_match_profile(equally_spaced(0.1), 0, 2_500_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
