"""Core game types, payoff functional, the block-schedule arbiter, and empirical estimation."""

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
    MismatchProfile,
    confidence_halfwidth,
    match_profile,
    payoff,
    play_match,
)
from coordgame.quantum import GeneralAnglePlan, quantum_player_strategy
from helpers import ConstantStrategy, block_schedule, played, reference_match, reference_profile

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def profiles(min_denom=0.0):
    return (
        st.tuples(probs, probs, probs, probs)
        .map(lambda t: MismatchProfile(*t))
        .filter(lambda p: max(p.q01, p.q10, p.q11) > min_denom)
    )


class TestDomainTypes:
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


class _Recorder:
    """Constant-move strategy that records exactly what the arbiter shows it."""

    def __init__(self, move=0):
        self.move = move
        self.seen = []

    def moves(self, states, round_indices):
        self.seen.append((states.copy(), round_indices.copy()))
        return np.full(len(states), int(self.move), dtype=np.uint8)


class _Untouchable:
    def moves(self, states, round_indices):
        raise AssertionError("a rejected match must query no strategy")


def _seen(recorder: _Recorder, k: int) -> np.ndarray:
    """What a recorder was shown, joined over its calls: 0 states, 1 round indices."""
    return np.concatenate([seen[k] for seen in recorder.seen])


class TestUniformSchedule:
    """The block schedule that ``play_match`` plays: r rounds of each pair, (0,0) first."""

    def test_block_layout(self):
        one, two = _Recorder(), _Recorder()
        assert [start for start, _, _ in play_match(one, two, 3)] == [0, 3, 6, 9]
        expected = np.repeat([[0, 0], [0, 1], [1, 0], [1, 1]], 3, axis=0)
        assert np.array_equal(np.column_stack([_seen(one, 0), _seen(two, 0)]), expected)
        assert np.array_equal(_seen(one, 1), np.arange(12))

    @given(st.integers(min_value=1, max_value=50))
    def test_each_pair_appears_exactly_r_times(self, r):
        one, two = _Recorder(), _Recorder()
        played(one, two, r)
        states_one, states_two = _seen(one, 0), _seen(two, 0)
        assert len(states_one) == 4 * r
        for i, j in STATE_PAIRS:
            assert np.count_nonzero((states_one == i) & (states_two == j)) == r

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            play_match(_Untouchable(), _Untouchable(), 0)

    def test_rejects_round_indices_beyond_int64(self):
        # 4 * 2**61 rounds have indices up to 2**63 - 1, the largest int64;
        # the call itself raises, before any strategy is queried
        with pytest.raises(ValueError, match=r"exceeds 2\*\*61: round indices overflow int64"):
            play_match(_Untouchable(), _Untouchable(), 2**61 + 1)


class TestRunMatch:
    """Running a match through ``play_match``."""

    def test_constant_strategies_never_mismatch(self):
        move_one, move_two = played(ConstantStrategy(0), ConstantStrategy(0), 5)
        assert len(move_one) == 20
        assert np.array_equal(move_one, move_two)

    def test_each_player_sees_only_its_own_state_column(self):
        r = MATCH_CHUNK_ROUNDS + 3  # two chunks per block
        one, two = _Recorder(), _Recorder(1)
        played(one, two, r)
        sched = block_schedule(r)
        assert np.array_equal(_seen(one, 0), sched[:, 0])
        assert np.array_equal(_seen(two, 0), sched[:, 1])

    def test_both_players_see_identical_round_indices(self):
        one, two = _Recorder(), _Recorder()
        played(one, two, 4)
        assert np.array_equal(_seen(one, 1), np.arange(16))
        assert np.array_equal(_seen(two, 1), np.arange(16))

    def test_deterministic_for_fixed_seed(self):
        plan = GeneralAnglePlan.equally_spaced(0.3)
        a = played(*quantum_player_strategy(plan, 5), 7)
        b = played(*quantum_player_strategy(plan, 5), 7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_draws_no_randomness(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the arbiter must not draw randomness")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        one, two = ConstantStrategy(0), ConstantStrategy(1)
        assert match_profile(one, two, MATCH_CHUNK_ROUNDS + 3) == MismatchProfile(1.0, 1.0, 1.0, 1.0)
        move_one, move_two = played(one, two, 5)
        assert move_one.tolist() == [0] * 20 and move_two.tolist() == [1] * 20

    def test_rejects_bad_strategy_output(self):
        class Bad:
            def moves(self, states, round_indices):
                return np.full(len(states), 7, dtype=np.uint8)

        chunks = play_match(Bad(), ConstantStrategy(0), 2)
        with pytest.raises(ValueError):
            next(chunks)

    def test_queries_no_strategy_until_iterated(self):
        one, two = _Recorder(), _Recorder()
        chunks = play_match(one, two, 5)
        assert one.seen == two.seen == []
        next(chunks)
        assert len(one.seen) == len(two.seen) == 1

    @pytest.mark.parametrize("family", ["classical", "quantum"])
    def test_equals_the_reference_arbiter_on_the_block_schedule(self, chunk_rounds, family):
        # one call per player for the whole schedule gives the same moves
        r = _ragged_rounds(chunk_rounds)
        recorded = reference_match(*_shipped_pair(family), block_schedule(r))
        move_one, move_two = played(*_shipped_pair(family), r)
        assert np.array_equal(move_one, recorded.move_one)
        assert np.array_equal(move_two, recorded.move_two)


class TestMatchRecords:
    """The chunk records that ``play_match`` yields and the arrays it hands out."""

    def test_columns_follow_schedule_order(self):
        chunks = list(play_match(ConstantStrategy(0), ConstantStrategy(1), 2))
        assert [start for start, _, _ in chunks] == [0, 2, 4, 6]
        for _, move_one, move_two in chunks:
            assert move_one.dtype == move_two.dtype == np.uint8
            assert move_one.tolist() == [0] * 2
            assert move_two.tolist() == [1] * 2

    def test_columns_are_write_protected(self):
        # the round indices that both players are handed; neither player
        # can change what the other one sees
        flags = []

        class Writer:
            def moves(self, states, round_indices):
                flags.append(round_indices.flags.writeable)
                return np.zeros(len(states), dtype=np.uint8)

        played(Writer(), Writer(), 3)
        assert flags == [False] * 8

    def test_state_columns_are_write_protected(self):
        # each block's columns are built once and sliced per chunk, so a
        # write would reach the chunks after it
        seen = []

        class Writer:
            def moves(self, states, round_indices):
                with pytest.raises(ValueError, match="read-only"):
                    states[0] = 1 - states[0]
                seen.append(states.copy())
                return np.zeros(len(states), dtype=np.uint8)

        played(Writer(), Writer(), 3)
        assert np.array_equal(np.concatenate(seen[0::2]), block_schedule(3)[:, 0])
        assert np.array_equal(np.concatenate(seen[1::2]), block_schedule(3)[:, 1])

    def test_non_binary_entries_rejected(self):
        class Two:
            def moves(self, states, round_indices):
                return np.where(round_indices == 5, 2, 0).astype(np.uint8)

        with pytest.raises(ValueError, match="moves must be 0"):
            played(ConstantStrategy(0), Two(), 2)

    @pytest.mark.parametrize("bad", [256, -255, -1, 0.7, 1.9, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("container", [np.asarray, list], ids=["array", "list"])
    def test_values_are_checked_before_the_cast(self, bad, container):
        # a cast to uint8 first would play 256 and 0.7 as A, 1.9 and -255
        # as B, overflow on a list holding -1 and warn on NaN
        class Off:
            def moves(self, states, round_indices):
                return container(np.where(round_indices == 5, bad, 0).tolist())

        with pytest.raises(ValueError, match=r"^moves must be 0 \(A\) or 1 \(B\)$"):
            match_profile(Off(), ConstantStrategy(0), 2)
        with pytest.raises(ValueError, match=r"^moves must be 0 \(A\) or 1 \(B\)$"):
            match_profile(ConstantStrategy(0), Off(), 2)

    @pytest.mark.parametrize(
        "convert",
        [np.ndarray.tolist, lambda m: m.astype(bool), lambda m: m.astype(np.int64), lambda m: m.astype(float)],
        ids=["list", "bool", "int64", "float"],
    )
    def test_any_dtype_of_zeros_and_ones_plays_as_uint8(self, convert):
        class Converted:
            def moves(self, states, round_indices):
                return convert((round_indices % 3 == 0).astype(np.uint8))

        chunks = list(play_match(Converted(), ConstantStrategy(0), 3))
        assert all(one.dtype == np.uint8 for _, one, _ in chunks)
        assert np.concatenate([one for _, one, _ in chunks]).tolist() == [1, 0, 0] * 4

    def test_mismatched_columns_rejected(self):
        class Long:
            def moves(self, states, round_indices):
                return np.zeros(len(states) + 1, dtype=np.uint8)

        with pytest.raises(ValueError, match=r"returned \(3,\), expected \(2,\)"):
            played(Long(), ConstantStrategy(0), 2)


class TestEmpiricalProfile:
    def test_hand_built_counts(self, monkeypatch):
        # (0,0): 2 rounds, 1 mismatch; (0,1): 2/0; (1,0): 2/2; (1,1): 2/2
        class Scripted:
            def __init__(self, moves):
                self.table = np.array(moves, dtype=np.uint8)

            def moves(self, states, round_indices):
                return self.table[round_indices]

        one = Scripted([0, 0, 1, 0, 0, 1, 0, 1])
        two = Scripted([0, 1, 1, 0, 1, 0, 1, 0])
        for chunk in (MATCH_CHUNK_ROUNDS, 1):
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            assert match_profile(one, two, 2) == MismatchProfile(0.5, 0.0, 1.0, 1.0)


@pytest.fixture(params=[MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
def chunk_rounds(request, monkeypatch):
    monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", request.param)
    return request.param


def _ragged_rounds(chunk_rounds: int) -> int:
    """Rounds per state pair such that block and chunk boundaries cut each other raggedly."""
    return 3 * chunk_rounds + 17


class TestMatchProfile:
    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_equals_profile_of_recorded_match(self, chunk_rounds, mode):
        r = _ragged_rounds(chunk_rounds)
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, mode=mode, seed=2))
        players = classical_strategy(1, sequences), classical_strategy(2, sequences)
        recorded = reference_profile(reference_match(*players, block_schedule(r)))
        assert match_profile(*players, r) == recorded

    def test_strategies_see_the_whole_match_in_order(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        sched = block_schedule(r)
        whole_one, whole_two = _Recorder(), _Recorder(1)
        reference_match(whole_one, whole_two, sched)
        one, two = _Recorder(), _Recorder(1)
        match_profile(one, two, r)
        assert len(one.seen) == len(two.seen) == 4 * -(-r // chunk_rounds)  # ceil, per block
        for player, (chunked, whole) in enumerate(((one, whole_one), (two, whole_two))):
            for states, rounds in chunked.seen:
                assert 1 <= len(rounds) <= chunk_rounds
                assert rounds[0] // r == rounds[-1] // r  # no chunk crosses a block
                assert np.all(states == states[0])
            assert np.array_equal(_seen(chunked, 0), sched[:, player])
            for k in range(2):  # states, round indices
                assert np.array_equal(_seen(chunked, k), whole.seen[0][k])

    @pytest.mark.parametrize("r", [0, -1, 2**61 + 1], ids=["zero", "negative", "beyond-int64"])
    def test_rejects_bad_round_count(self, r):
        with pytest.raises(ValueError, match="rounds_per_state_pair"):
            match_profile(_Untouchable(), _Untouchable(), r)
        with pytest.raises(ValueError, match="rounds_per_state_pair"):
            play_match(_Untouchable(), _Untouchable(), r)

    def test_accepts_the_largest_round_count(self):
        class Stop(Exception):
            pass

        class FirstChunk:
            def moves(self, states, round_indices):
                raise Stop(round_indices[0], len(round_indices))

        with pytest.raises(Stop) as info:
            match_profile(FirstChunk(), _Untouchable(), 2**61)
        assert info.value.args == (0, MATCH_CHUNK_ROUNDS)

    def test_rejects_bad_strategy_output(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        for bad_round in (9, 4 * r - 1):

            class BadLate:
                """Valid moves, except a 7 in one late round."""

                def moves(self, states, round_indices):
                    return np.where(round_indices == bad_round, 7, 0).astype(np.uint8)

            with pytest.raises(ValueError, match="moves must be 0"):
                played(BadLate(), ConstantStrategy(0), r)
            with pytest.raises(ValueError, match="moves must be 0"):
                match_profile(BadLate(), ConstantStrategy(0), r)

    def test_rejects_wrong_length_output(self, monkeypatch):
        class Short:
            def moves(self, states, round_indices):
                return np.zeros(len(states) - 1, dtype=np.uint8)

        for chunk in (MATCH_CHUNK_ROUNDS, 7):
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            r = _ragged_rounds(chunk)
            with pytest.raises(ValueError, match="expected"):
                played(ConstantStrategy(0), Short(), r)
            with pytest.raises(ValueError, match="expected"):
                match_profile(ConstantStrategy(0), Short(), r)


def _shipped_pair(family: str):
    """A fresh player pair of one shipped strategy family."""
    if family == "classical":
        sequences = generate_sequences(ClassicalConfig(n=5_000, q=0.1, seed=2))
        return classical_strategy(1, sequences), classical_strategy(2, sequences)
    return quantum_player_strategy(GeneralAnglePlan.equally_spaced(0.3), 2)


@pytest.mark.parametrize("family", ["classical", "quantum"])
def test_empty_batch_is_answered_with_no_moves(family):
    # an empty batch draws nothing: the next batch is a fresh pair's first
    one, two = _shipped_pair(family)
    empty = np.zeros(0, dtype=np.int64)
    empty.setflags(write=False)
    for player in (one, two):
        moves = np.asarray(player.moves(empty.astype(np.uint8), empty))
        assert moves.shape == (0,) and moves.dtype == np.uint8
    states = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    rounds = np.arange(5)
    fresh_one, fresh_two = _shipped_pair(family)
    assert np.array_equal(one.moves(states, rounds), fresh_one.moves(states, rounds))
    assert np.array_equal(two.moves(states, rounds), fresh_two.moves(states, rounds))


class TestReports:
    def test_halfwidth_formula(self):
        p = MismatchProfile(0.3, 0.1, 0.1, 0.1)
        n = 10_000
        var = (0.3 * 0.7 / n) / 0.1**2 + 0.3**2 * (0.1 * 0.9 / n) / 0.1**4
        assert confidence_halfwidth(p, n) == pytest.approx(1.96 * np.sqrt(var), rel=1e-12)

    def test_halfwidth_shrinks_with_samples(self):
        p = MismatchProfile(0.3, 0.1, 0.1, 0.1)
        assert confidence_halfwidth(p, 40_000) == pytest.approx(
            confidence_halfwidth(p, 10_000) / 2, rel=1e-12
        )

    def test_halfwidth_needs_samples(self):
        with pytest.raises(ValueError, match="samples_per_state_pair must be >= 1"):
            confidence_halfwidth(MismatchProfile(0.3, 0.1, 0.1, 0.1), 0)

    def test_halfwidth_raises_as_payoff_does(self):
        with pytest.raises(DegenerateProfile):
            confidence_halfwidth(MismatchProfile(0.0, 0.0, 0.0, 0.0), 100)
        with pytest.raises(ValueError, match="overflows"):
            confidence_halfwidth(MismatchProfile(1.0, 1e-310, 0.0, 0.0), 100)
