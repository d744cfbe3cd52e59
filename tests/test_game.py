"""Core game types, payoff functional, arbiter, and empirical estimation."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame import game
from coordgame.classical import ClassicalConfig, classical_strategy, generate_sequences
from coordgame.game import (
    MATCH_CHUNK_ROUNDS,
    STATE_PAIRS,
    DegenerateProfile,
    MatchRecords,
    MismatchProfile,
    MissingStatePair,
    Move,
    analytic_report,
    empirical_profile,
    empirical_report,
    match_profile,
    payoff,
    run_match,
    uniform_schedule,
)
from coordgame.quantum import GeneralAnglePlan, SingletSampler, quantum_player_strategy
from helpers import ConstantStrategy

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def profiles(min_denom=0.0):
    return (
        st.tuples(probs, probs, probs, probs)
        .map(lambda t: MismatchProfile(*t))
        .filter(lambda p: max(p.q01, p.q10, p.q11) > min_denom)
    )


class TestDomainTypes:
    def test_enums_are_binary(self):
        assert [int(m) for m in Move] == [0, 1]
        assert Move.A == 0 and Move.B == 1

    def test_state_pair_order(self):
        assert STATE_PAIRS == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert all(type(state) is int for pair in STATE_PAIRS for state in pair)

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

    def test_scalar_entries_are_python_floats(self):
        p = MismatchProfile(np.float64(0.1), 1, np.array(0.25), 0.5)
        assert all(type(v) is float for v in p.as_array().tolist())
        assert [type(p.entry(i, j)) for i, j in STATE_PAIRS] == [float] * 4
        assert p == MismatchProfile(0.1, 1.0, 0.25, 0.5)


class TestColumnProfile:
    def test_rejects_columns_of_unequal_shape(self):
        q = np.full(2, 0.1)
        with pytest.raises(ValueError, match="one shape"):
            MismatchProfile(np.full(3, 0.1), q, q, q)
        with pytest.raises(ValueError, match="one shape"):
            MismatchProfile(0.1, q, q, q)  # a float beside columns is not a column
        with pytest.raises(ValueError, match="one shape"):
            MismatchProfile(np.full((2, 1), 0.1), q, q, q)

    @pytest.mark.parametrize("name", ["q00", "q01", "q10", "q11"])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_rejects_a_bad_entry_in_any_row_and_names_the_field(self, name, bad):
        columns = dict(zip(["q00", "q01", "q10", "q11"], np.full((4, 5), 0.25)))
        columns[name][3] = bad
        with pytest.raises(ValueError, match=rf"^{name}={bad!r} outside \[0, 1\]$"):
            MismatchProfile(**columns)

    def test_columns_are_read_only_copies(self):
        q = np.full((4, 3), 0.25)
        profile = MismatchProfile(*q)
        assert q.flags.writeable
        q[0, 0] = 0.5  # later writes by the caller do not reach the profile
        assert profile.q00[0] == 0.25
        for i, j in STATE_PAIRS:
            with pytest.raises(ValueError):
                profile.entry(i, j)[0] = 0.5


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
        rows = [payoff(MismatchProfile(*column)) for column in q.T]
        assert payoff(MismatchProfile(*q)).tobytes() == np.array(rows).tobytes()

    def test_one_degenerate_row_raises(self):
        q = np.random.default_rng(4).random((4, 100))
        q[1:, 37] = 0.0
        with pytest.raises(DegenerateProfile):
            payoff(MismatchProfile(*q))

    def test_overflowing_ratio_raises(self):
        # a RuntimeWarning fails the suite, so this also checks that none is printed
        with pytest.raises(ValueError, match="payoff overflows"):
            payoff(MismatchProfile(1.0, 1e-310, 0.0, 0.0))

    def test_one_overflowing_row_raises(self):
        q = np.random.default_rng(4).random((4, 100))
        q[:, 37] = (1.0, 1e-310, 0.0, 5e-324)
        with pytest.raises(ValueError, match="payoff overflows"):
            payoff(MismatchProfile(*q))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_ratio_exits_two_with_one_line(self, fmt):
        # a subprocess, so a numpy warning printed to stderr would show
        proc = subprocess.run(
            [sys.executable, "-m", "coordgame.cli", "bounds", "1", "1e-310", "0", "0", "--format", fmt],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "coordgame bounds: invalid parameters: "
            "payoff overflows: q00 / max(q01, q10, q11) is not finite"
        ]

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

    def test_rejects_round_indices_beyond_int64(self):
        # 4 * 2**61 rounds have indices up to 2**63 - 1, the largest int64
        with pytest.raises(ValueError, match=r"exceeds 2\*\*61: round indices overflow int64"):
            uniform_schedule(2**61 + 1)


class _Recorder:
    """Constant-move strategy that records exactly what the arbiter shows it."""

    def __init__(self, move=Move.A):
        self.move = move
        self.seen = []

    def moves(self, states, round_indices, shared):
        shared = None if shared is None else shared.copy()
        self.seen.append((states.copy(), round_indices.copy(), shared))
        return np.full(len(states), int(self.move), dtype=np.uint8)


class _Ignorer(_Recorder):
    """A recorder that declares it ignores the shared stream."""

    reads_shared = False


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

    def test_columns_follow_schedule_order(self):
        rec = self._small()
        assert len(rec) == 8
        assert rec.states.tolist() == uniform_schedule(2).tolist()
        assert rec.move_one.tolist() == [Move.A] * 8
        assert rec.move_two.tolist() == [Move.B] * 8
        assert all(col.dtype == np.uint8 for col in (rec.states, rec.move_one, rec.move_two))

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

    def test_missing_state_pair_raises(self):
        states = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.uint8)
        rec = MatchRecords(
            states=states,
            move_one=np.zeros(3, dtype=np.uint8),
            move_two=np.zeros(3, dtype=np.uint8),
        )
        with pytest.raises(MissingStatePair):
            empirical_profile(rec)


@pytest.fixture(params=[MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
def chunk_rounds(request, monkeypatch):
    monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", request.param)
    return request.param


def _ragged_rounds(chunk_rounds: int) -> int:
    """Rounds per state pair such that block and chunk boundaries cut each other raggedly."""
    return 3 * chunk_rounds + 17


class _Untouchable:
    def moves(self, states, round_indices, shared):
        raise AssertionError("a rejected match must query no strategy")


class TestMatchProfile:
    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_equals_profile_of_recorded_match(self, chunk_rounds, mode):
        r = _ragged_rounds(chunk_rounds)
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, mode=mode, seed=2))
        players = classical_strategy(1, sequences), classical_strategy(2, sequences)
        recorded = empirical_profile(run_match(*players, uniform_schedule(r), seed=3))
        assert match_profile(*players, r, seed=3) == recorded

    def test_strategies_see_the_whole_match_in_order(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        sched = uniform_schedule(r)
        whole_one, whole_two = _Recorder(), _Recorder(Move.B)
        run_match(whole_one, whole_two, sched, seed=6)
        one, two = _Recorder(), _Recorder(Move.B)
        match_profile(one, two, r, seed=6)
        assert len(one.seen) == len(two.seen) == 4 * -(-r // chunk_rounds)  # ceil, per block
        for player, (chunked, whole) in enumerate(((one, whole_one), (two, whole_two))):
            for states, rounds, _ in chunked.seen:
                assert 1 <= len(rounds) <= chunk_rounds
                assert rounds[0] // r == rounds[-1] // r  # no chunk crosses a block
                assert np.all(states == states[0])
            assert np.array_equal(np.concatenate([seen[0] for seen in chunked.seen]), sched[:, player])
            for k in range(3):  # states, round indices, shared stream
                joined = np.concatenate([seen[k] for seen in chunked.seen])
                assert np.array_equal(joined, whole.seen[0][k])

    @pytest.mark.parametrize("r", [0, -1, 2**61 + 1], ids=["zero", "negative", "beyond-int64"])
    def test_rejects_bad_round_count(self, r):
        with pytest.raises(ValueError, match="rounds_per_state_pair"):
            match_profile(_Untouchable(), _Untouchable(), r, seed=0)

    def test_accepts_the_largest_round_count(self):
        class Stop(Exception):
            pass

        class FirstChunk:
            def moves(self, states, round_indices, shared):
                raise Stop(round_indices[0], len(round_indices))

        with pytest.raises(Stop) as info:
            match_profile(FirstChunk(), _Untouchable(), 2**61, seed=0)
        assert info.value.args == (0, MATCH_CHUNK_ROUNDS)

    def test_rejects_bad_strategy_output(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        for bad_round in (9, 4 * r - 1):

            class BadLate:
                """Valid moves, except a 7 in one late round."""

                def moves(self, states, round_indices, shared):
                    return np.where(round_indices == bad_round, 7, 0).astype(np.uint8)

            with pytest.raises(ValueError, match="moves must be 0"):
                run_match(BadLate(), ConstantStrategy(Move.A), uniform_schedule(r), seed=0)
            with pytest.raises(ValueError, match="moves must be 0"):
                match_profile(BadLate(), ConstantStrategy(Move.A), r, seed=0)

    def test_rejects_wrong_length_output(self, monkeypatch):
        class Short:
            def moves(self, states, round_indices, shared):
                return np.zeros(len(states) - 1, dtype=np.uint8)

        for chunk in (MATCH_CHUNK_ROUNDS, 7):
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            r = _ragged_rounds(chunk)
            with pytest.raises(ValueError, match="expected"):
                run_match(ConstantStrategy(Move.A), Short(), uniform_schedule(r), seed=0)
            with pytest.raises(ValueError, match="expected"):
                match_profile(ConstantStrategy(Move.A), Short(), r, seed=0)


def _shipped_pair(family: str):
    """A fresh player pair of one shipped strategy family."""
    if family == "classical":
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, seed=2))
        return classical_strategy(1, sequences), classical_strategy(2, sequences)
    return quantum_player_strategy(GeneralAnglePlan.equally_spaced(0.3), SingletSampler(2))


class _StreamReader:
    """An attribute-less proxy, so the arbiter draws the shared stream for it."""

    def __init__(self, inner):
        self.inner = inner

    def moves(self, states, round_indices, shared):
        assert shared is not None and len(shared) == len(states)
        return self.inner.moves(states, round_indices, shared)


class TestSharedStreamDeclaration:
    @pytest.mark.parametrize("family", ["classical", "quantum"])
    def test_shipped_strategies_ignore_the_stream_and_get_none(self, monkeypatch, family):
        one, two = _shipped_pair(family)
        assert type(one).reads_shared is False and type(two).reads_shared is False
        handed = []
        moves = type(one).moves

        def recording_moves(self, states, round_indices, shared):
            handed.append(shared)
            return moves(self, states, round_indices, shared)

        monkeypatch.setattr(type(one), "moves", recording_moves)
        r = MATCH_CHUNK_ROUNDS + 3
        match_profile(one, two, r, seed=1)
        run_match(*_shipped_pair(family), uniform_schedule(r), seed=1)
        # both players: two chunks in each of the four blocks, then one whole-schedule call
        assert len(handed) == 2 * (4 * 2 + 1)
        assert all(shared is None for shared in handed)

    def test_a_reader_beside_an_ignorer_sees_what_two_readers_see(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        both = _Recorder(), _Recorder()
        match_profile(*both, r, seed=5)
        expected = np.concatenate([seen[2] for seen in both[0].seen])
        assert np.array_equal(expected, np.concatenate([seen[2] for seen in both[1].seen]))
        for order in (1, -1):  # the reader as player one, then as player two
            reader = _Recorder()
            match_profile(*(reader, _Ignorer())[::order], r, seed=5)
            assert np.array_equal(np.concatenate([seen[2] for seen in reader.seen]), expected)

    def test_two_ignorers_get_none(self, chunk_rounds):
        one, two = _Ignorer(), _Ignorer(Move.B)
        match_profile(one, two, _ragged_rounds(chunk_rounds), seed=5)
        assert all(seen[2] is None for seen in one.seen + two.seen)

    @pytest.mark.parametrize("family", ["classical", "quantum"])
    def test_skipping_the_stream_changes_no_move(self, chunk_rounds, family):
        r = _ragged_rounds(chunk_rounds)
        proxied = [_StreamReader(s) for s in _shipped_pair(family)]
        assert match_profile(*_shipped_pair(family), r, seed=4) == match_profile(*proxied, r, seed=4)
        proxied = [_StreamReader(s) for s in _shipped_pair(family)]
        sched = uniform_schedule(r)
        assert run_match(*_shipped_pair(family), sched, seed=4) == run_match(*proxied, sched, seed=4)


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
