"""Core game types, payoff functional, arbiter, and empirical estimation."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame import game
from coordgame.classical import ClassicalConfig, classical_strategy, generate_sequences
from coordgame.game import (
    MATCH_CHUNK_ROUNDS,
    STATE_PAIRS,
    ConstantStrategy,
    DegenerateProfile,
    MatchRecords,
    MismatchProfile,
    MissingStatePair,
    Move,
    PlayerState,
    RoundRecord,
    StatePair,
    analytic_report,
    empirical_profile,
    empirical_report,
    match_profile,
    payoff,
    run_match,
    uniform_schedule,
)

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def profiles(min_denom=0.0):
    return (
        st.tuples(probs, probs, probs, probs)
        .map(lambda t: MismatchProfile(*t))
        .filter(lambda p: max(p.q01, p.q10, p.q11) > min_denom)
    )


class TestDomainTypes:
    def test_enums_are_binary(self):
        assert [int(s) for s in PlayerState] == [0, 1]
        assert [int(m) for m in Move] == [0, 1]
        assert Move.A == 0 and Move.B == 1

    def test_state_pair_order(self):
        assert STATE_PAIRS == (
            StatePair(PlayerState.ZERO, PlayerState.ZERO),
            StatePair(PlayerState.ZERO, PlayerState.ONE),
            StatePair(PlayerState.ONE, PlayerState.ZERO),
            StatePair(PlayerState.ONE, PlayerState.ONE),
        )

    def test_profile_entry_lookup(self):
        p = MismatchProfile(0.1, 0.2, 0.3, 0.4)
        assert p.entry(0, 0) == 0.1
        assert p.entry(0, 1) == 0.2
        assert p.entry(1, 0) == 0.3
        assert p.entry(1, 1) == 0.4
        assert np.array_equal(p.as_array(), [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_profile_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            MismatchProfile(bad, 0.1, 0.1, 0.1)

    def test_profile_is_immutable(self):
        p = MismatchProfile(0.1, 0.1, 0.1, 0.1)
        with pytest.raises(AttributeError):
            p.q00 = 0.5


class TestPayoff:
    def test_construction_profile_pays_three(self):
        assert payoff(MismatchProfile(0.3, 0.1, 0.1, 0.1)) == pytest.approx(3.0, abs=1e-12)

    def test_max_over_three_denominator_entries(self):
        assert payoff(MismatchProfile(0.4, 0.1, 0.2, 0.05)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_numerator_pays_zero(self):
        assert payoff(MismatchProfile(0.0, 0.2, 0.1, 0.1)) == 0.0

    def test_unit_ratio_when_entries_equal(self):
        assert payoff(MismatchProfile(0.5, 0.5, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_near_nine_singlet_ratio(self):
        p = MismatchProfile(0.0223327, 0.0024979, 0.0024979, 0.0024979)
        assert payoff(p) == pytest.approx(8.9402, abs=1e-3)

    def test_degenerate_denominator_raises(self):
        with pytest.raises(DegenerateProfile):
            payoff(MismatchProfile(0.5, 0.0, 0.0, 0.0))

    def test_columns_equal_row_calls(self):
        q = np.random.default_rng(4).random((4, 1000))
        q[1:, :10] = 0.25  # ties between denominator entries
        q[:, 10] = 0.0  # zero numerator and a zero denominator entry
        q[3, 10] = 0.5
        columns = SimpleNamespace(q00=q[0], q01=q[1], q10=q[2], q11=q[3])
        rows = [payoff(MismatchProfile(*map(float, column))) for column in q.T]
        assert payoff(columns).tobytes() == np.array(rows).tobytes()

    def test_one_degenerate_row_raises(self):
        q = np.random.default_rng(4).random((4, 100))
        q[1:, 37] = 0.0
        with pytest.raises(DegenerateProfile):
            payoff(SimpleNamespace(q00=q[0], q01=q[1], q10=q[2], q11=q[3]))

    @given(profiles(min_denom=1e-9))
    def test_payoff_nonnegative_and_consistent(self, p):
        value = payoff(p)
        assert value >= 0.0
        denom = max(p.q01, p.q10, p.q11)
        assert value * denom == pytest.approx(p.q00, rel=1e-12, abs=1e-300)

    @given(profiles(min_denom=1e-6), st.floats(min_value=0.01, max_value=1.0))
    def test_payoff_scale_invariant(self, p, c):
        scaled = MismatchProfile(c * p.q00, c * p.q01, c * p.q10, c * p.q11)
        assert payoff(scaled) == pytest.approx(payoff(p), rel=1e-9)


class TestUniformSchedule:
    def test_block_layout(self):
        sched = uniform_schedule(3)
        assert sched.shape == (12, 2)
        expected = np.repeat([[0, 0], [0, 1], [1, 0], [1, 1]], 3, axis=0)
        assert np.array_equal(sched, expected)

    @given(st.integers(min_value=1, max_value=50))
    def test_each_pair_appears_exactly_r_times(self, r):
        sched = uniform_schedule(r)
        for i, j in STATE_PAIRS:
            count = np.count_nonzero((sched[:, 0] == i) & (sched[:, 1] == j))
            assert count == r

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_schedule(0)


class _Recorder:
    """Constant-move strategy that records exactly what the arbiter shows it."""

    def __init__(self, move=Move.A):
        self.move = move
        self.seen = []

    def moves(self, states, round_indices, shared):
        self.seen.append((states.copy(), round_indices.copy(), shared.copy()))
        return np.full(len(states), int(self.move), dtype=np.uint8)


class TestRunMatch:
    def test_constant_strategies_never_mismatch(self):
        rec = run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.A), uniform_schedule(5), seed=0)
        assert len(rec) == 20
        assert np.array_equal(rec.move_one, rec.move_two)

    def test_each_player_sees_only_its_own_state_column(self):
        sched = np.array([[0, 1], [1, 0], [0, 0], [1, 1]], dtype=np.uint8)
        one, two = _Recorder(), _Recorder(Move.B)
        run_match(one, two, sched, seed=3)
        assert np.array_equal(one.seen[0][0], sched[:, 0])
        assert np.array_equal(two.seen[0][0], sched[:, 1])

    def test_both_players_see_identical_shared_stream(self):
        one, two = _Recorder(), _Recorder()
        run_match(one, two, uniform_schedule(4), seed=11)
        assert np.array_equal(one.seen[0][2], two.seen[0][2])
        assert np.array_equal(one.seen[0][1], np.arange(16))

    def test_deterministic_for_fixed_seed(self):
        sched = uniform_schedule(7)
        a = run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.B), sched, seed=5)
        b = run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.B), sched, seed=5)
        assert a == b

    def test_shared_stream_depends_on_seed(self):
        one_a, one_b = _Recorder(), _Recorder()
        run_match(one_a, _Recorder(), uniform_schedule(4), seed=0)
        run_match(one_b, _Recorder(), uniform_schedule(4), seed=1)
        assert not np.array_equal(one_a.seen[0][2], one_b.seen[0][2])

    @pytest.mark.parametrize(
        "sched",
        [np.zeros((0, 2)), np.zeros((4, 3)), np.array([[0, 2], [1, 0]])],
    )
    def test_rejects_malformed_schedule(self, sched):
        with pytest.raises(ValueError):
            run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.A), sched, seed=0)

    def test_rejects_bad_strategy_output(self):
        class Bad:
            def moves(self, states, round_indices, shared):
                return np.full(len(states), 7, dtype=np.uint8)

        with pytest.raises(ValueError):
            run_match(Bad(), ConstantStrategy(Move.A), uniform_schedule(2), seed=0)


class TestMatchRecords:
    def _small(self):
        return run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.B), uniform_schedule(2), seed=0)

    def test_indexing_and_iteration(self):
        rec = self._small()
        first = rec[0]
        assert first == RoundRecord(0, StatePair(PlayerState.ZERO, PlayerState.ZERO), Move.A, Move.B)
        assert rec[-1].round_index == len(rec) - 1
        assert [r.round_index for r in rec] == list(range(8))

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            self._small()[8]

    def test_columns_are_write_protected(self):
        rec = self._small()
        with pytest.raises(ValueError):
            rec.move_one[0] = 1

    def test_equality_is_by_content(self):
        assert self._small() == self._small()
        other = run_match(ConstantStrategy(Move.B), ConstantStrategy(Move.B), uniform_schedule(2), seed=0)
        assert self._small() != other

    def test_callers_arrays_stay_writable(self):
        states = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
        m1 = np.array([0, 1, 0, 1], dtype=np.uint8)
        m2 = np.array([1, 1, 0, 0], dtype=np.uint8)
        rec = MatchRecords(states=states, move_one=m1, move_two=m2)
        assert states.flags.writeable and m1.flags.writeable and m2.flags.writeable
        m1[0] = 1  # later writes by the caller do not reach the records
        assert rec.move_one[0] == 0

    def test_run_match_leaves_schedule_writable(self):
        sched = uniform_schedule(2)
        run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.B), sched, seed=0)
        assert sched.flags.writeable

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            MatchRecords(
                states=np.array([[0, 2]], dtype=np.uint8),
                move_one=np.zeros(1, dtype=np.uint8),
                move_two=np.zeros(1, dtype=np.uint8),
            )

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            MatchRecords(
                states=np.zeros((3, 2), dtype=np.uint8),
                move_one=np.zeros(3, dtype=np.uint8),
                move_two=np.zeros(2, dtype=np.uint8),
            )


class TestEmpiricalProfile:
    def test_hand_built_counts(self):
        # (0,0): 2 rounds, 1 mismatch; (0,1): 1/0; (1,0): 1/1; (1,1): 2/2
        states = np.array([[0, 0], [0, 0], [0, 1], [1, 0], [1, 1], [1, 1]], dtype=np.uint8)
        m1 = np.array([0, 0, 1, 0, 0, 1], dtype=np.uint8)
        m2 = np.array([0, 1, 1, 1, 1, 0], dtype=np.uint8)
        prof = empirical_profile(MatchRecords(states=states, move_one=m1, move_two=m2))
        assert prof == MismatchProfile(0.5, 0.0, 1.0, 1.0)

    def test_accepts_round_record_iterable(self):
        rec = run_match(ConstantStrategy(Move.A), ConstantStrategy(Move.B), uniform_schedule(3), seed=0)
        assert empirical_profile(list(rec)) == empirical_profile(rec)

    def test_missing_state_pair_raises(self):
        states = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
        rec = MatchRecords(
            states=states,
            move_one=np.zeros(3, dtype=np.uint8),
            move_two=np.zeros(3, dtype=np.uint8),
        )
        with pytest.raises(MissingStatePair):
            empirical_profile(rec)


def _random_schedule(rounds: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=(rounds, 2), dtype=np.uint8)


#: Longer than two chunks, with a ragged last chunk, at either chunk size used below.
EQUIVALENCE_ROUNDS = 3 * MATCH_CHUNK_ROUNDS + 17


@pytest.fixture(params=[MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
def chunk_rounds(request, monkeypatch):
    monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", request.param)
    return request.param


class TestMatchProfile:
    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_equals_profile_of_recorded_match(self, chunk_rounds, mode):
        sched = _random_schedule(EQUIVALENCE_ROUNDS, seed=1)
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, mode=mode, seed=2))
        players = classical_strategy(1, sequences), classical_strategy(2, sequences)
        recorded = empirical_profile(run_match(*players, sched, seed=3))
        assert match_profile(*players, sched, seed=3) == recorded

    def test_strategies_see_the_whole_match_in_order(self, chunk_rounds):
        sched = _random_schedule(3 * chunk_rounds + 5, seed=4)
        whole_one, whole_two = _Recorder(), _Recorder(Move.B)
        run_match(whole_one, whole_two, sched, seed=6)
        one, two = _Recorder(), _Recorder(Move.B)
        match_profile(one, two, sched, seed=6)
        assert len(one.seen) == len(two.seen) == 4
        for chunked, whole in ((one, whole_one), (two, whole_two)):
            for k in range(3):  # states, round indices, shared stream
                joined = np.concatenate([seen[k] for seen in chunked.seen])
                assert np.array_equal(joined, whole.seen[0][k])

    @pytest.mark.parametrize(
        "sched",
        [np.zeros((0, 2)), np.zeros((4, 3)), np.array([[0, 2], [1, 0]])],
    )
    def test_rejects_malformed_schedule(self, sched):
        with pytest.raises(ValueError, match="schedule"):
            match_profile(ConstantStrategy(Move.A), ConstantStrategy(Move.A), sched, seed=0)

    def test_rejects_bad_strategy_output(self, chunk_rounds):
        class BadLate:
            """Valid moves, except 7s in rounds 9 and later."""

            def moves(self, states, round_indices, shared):
                return np.where(round_indices >= 9, 7, 0).astype(np.uint8)

        with pytest.raises(ValueError, match="moves must be 0"):
            match_profile(BadLate(), ConstantStrategy(Move.A), uniform_schedule(5), seed=0)

    def test_rejects_wrong_length_output(self):
        class Short:
            def moves(self, states, round_indices, shared):
                return np.zeros(len(states) - 1, dtype=np.uint8)

        with pytest.raises(ValueError, match="expected"):
            match_profile(ConstantStrategy(Move.A), Short(), uniform_schedule(2), seed=0)

    def test_missing_state_pair_raises(self):
        sched = np.array([[0, 0], [0, 1], [1, 0]] * 5, dtype=np.uint8)
        with pytest.raises(MissingStatePair, match=r"\(1, 1\)"):
            match_profile(ConstantStrategy(Move.A), ConstantStrategy(Move.B), sched, seed=0)


class TestReports:
    def test_analytic_report_fields(self):
        rep = analytic_report(MismatchProfile(0.3, 0.1, 0.1, 0.1))
        assert rep.mode == "analytic"
        assert rep.payoff == pytest.approx(3.0, abs=1e-12)
        assert rep.samples_per_state_pair == 0
        assert rep.confidence_halfwidth == 0.0

    def test_empirical_report_halfwidth_formula(self):
        p = MismatchProfile(0.3, 0.1, 0.1, 0.1)
        n = 10_000
        rep = empirical_report(p, n)
        var = (0.3 * 0.7 / n) / 0.1**2 + 0.3**2 * (0.1 * 0.9 / n) / 0.1**4
        assert rep.mode == "empirical"
        assert rep.confidence_halfwidth == pytest.approx(1.96 * np.sqrt(var), rel=1e-12)

    def test_halfwidth_shrinks_with_samples(self):
        p = MismatchProfile(0.3, 0.1, 0.1, 0.1)
        assert empirical_report(p, 40_000).confidence_halfwidth == pytest.approx(
            empirical_report(p, 10_000).confidence_halfwidth / 2, rel=1e-12
        )

    def test_empirical_report_needs_samples(self):
        with pytest.raises(ValueError):
            empirical_report(MismatchProfile(0.3, 0.1, 0.1, 0.1), 0)
