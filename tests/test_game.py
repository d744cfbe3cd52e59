"""Core game types, payoff functional, the block-schedule arbiter, and empirical estimation."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordgame import game, quantum
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
from coordgame.quantum import GeneralAnglePlan, quantum_match_profile, quantum_player_strategy
from helpers import ConstantStrategy, block_schedule, played, reference_match, reference_profile, shipped_pair

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
        assert p.q00 == 0.1
        assert p.q01 == 0.2
        assert p.q10 == 0.3
        assert p.q11 == 0.4
        assert p.q.dtype == np.float64 and p.q.tolist() == [0.1, 0.2, 0.3, 0.4]
        for k, (i, j) in enumerate(STATE_PAIRS):  # row k of q is state pair k
            assert getattr(p, f"q{i}{j}") == p.q[k]
        assert MismatchProfile(q11=0.4, q10=0.3, q01=0.2, q00=0.1) == p

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
        assert p.q.shape == (4,) and p.q.dtype == np.float64
        assert all(type(v) is float for v in p.q.tolist())
        assert [type(getattr(p, f"q{i}{j}")) for i, j in STATE_PAIRS] == [float] * 4
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
        with pytest.raises(ValueError, match="one shape"):
            MismatchProfile(np.full(1, 0.1), 0.1, 0.1, 0.1)  # nor is a one-entry column a float

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
        assert profile.q.shape == (4, 3) and not profile.q.flags.writeable
        for k, (i, j) in enumerate(STATE_PAIRS):
            with pytest.raises(ValueError):
                getattr(profile, f"q{i}{j}")[0] = 0.5
            with pytest.raises(ValueError):
                profile.q[k, 0] = 0.5


class TestProfileArray:
    """``q`` is the one stored array; the named entries read its rows."""

    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_equal_and_unequal_profiles_compare_by_value(self, shape):
        q = np.full(shape, 0.1)
        assert MismatchProfile(*q) == MismatchProfile(*q.copy())
        assert not MismatchProfile(*q) != MismatchProfile(*q.copy())
        other = q.copy()
        other[(3,) + (2,) * (len(shape) - 1)] = 0.2
        assert MismatchProfile(*q) != MismatchProfile(*other)
        assert not MismatchProfile(*q) == MismatchProfile(*other)
        assert MismatchProfile(*q) != MismatchProfile(*np.full((4, 2), 0.1))  # shapes differ
        assert MismatchProfile(*q) != q.tolist()  # not a profile
        assert type(MismatchProfile(*q) == MismatchProfile(*q)) is bool

    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_stored_array_and_row_views_are_read_only(self, shape):
        profile = MismatchProfile(*np.full(shape, 0.25))
        assert not profile.q.flags.writeable
        with pytest.raises(ValueError):
            profile.q[0] = 0.5
        if len(shape) > 1:
            for name in ("q00", "q01", "q10", "q11"):
                assert np.shares_memory(getattr(profile, name), profile.q)
                with pytest.raises(ValueError):
                    getattr(profile, name)[0] = 0.5
        for name in ("q", "q00", "q11"):
            with pytest.raises(AttributeError):
                setattr(profile, name, np.zeros(shape))
        assert profile.q.tolist() == np.full(shape, 0.25).tolist()

    def test_callers_arrays_stay_writable(self):
        columns = [np.full(3, 0.25) for _ in range(4)]
        scalars = [np.array(0.25) for _ in range(4)]
        for entries in (columns, scalars):
            profile = MismatchProfile(*entries)
            assert all(v.flags.writeable and not np.shares_memory(v, profile.q) for v in entries)

    def test_profiles_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(MismatchProfile(0.1, 0.1, 0.1, 0.1))

    def test_negative_zero_entries_are_stored_as_zero(self):
        for q in ([-0.0, 0.1, -0.0, 0.2], [[-0.0, 0.5], [0.0, -0.0], [1.0, -0.0], [0.25, 0.0]]):
            profile = MismatchProfile(*q)
            assert not np.signbit(profile.q).any()
            assert np.array_equal(profile.q, q)

    @settings(max_examples=400)
    @given(
        st.lists(
            st.tuples(*[probs | st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324])] * 4), min_size=1, max_size=6
        ),
        st.booleans(),
    )
    def test_payoff_equals_the_nested_maximum_bitwise(self, rows, column):
        # ties and zeros come from the sampled entries; the formula is the
        # one payoff used while a profile held four separate fields
        q = np.array(rows).T
        p = MismatchProfile(*(q if column else q[:, 0]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            expected = p.q00 / np.maximum(np.maximum(p.q01, p.q10), p.q11)
        if np.any(np.maximum(np.maximum(p.q01, p.q10), p.q11) == 0.0):
            with pytest.raises(DegenerateProfile):
                payoff(p)
        elif not np.all(np.isfinite(expected)):
            with pytest.raises(ValueError, match="payoff overflows"):
                payoff(p)
        else:
            value = payoff(p)
            assert type(value) is type(expected)
            assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


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
    """Constant-move strategy that records exactly what the arbiter asks it."""

    def __init__(self, move=0):
        self.move = move
        self.seen = []

    def moves(self, start, n, state):
        self.seen.append((start, n, state))
        return np.full(n, int(self.move), dtype=np.uint8)


class _Untouchable:
    def moves(self, start, n, state):
        raise AssertionError("a rejected match must query no strategy")


def _seen(recorder: _Recorder) -> tuple[np.ndarray, np.ndarray]:
    """What a recorder was asked, one entry per round: its state column and the round indices."""
    states = np.concatenate([np.full(n, state, dtype=np.uint8) for _, n, state in recorder.seen])
    return states, np.concatenate([_rounds(start, n) for start, n, _ in recorder.seen])


def _rounds(start, n):
    """A chunk's round indices as an array, as a strategy that needs one builds it."""
    return np.arange(start, start + n)


class TestUniformSchedule:
    """The block schedule that ``play_match`` plays: r rounds of each pair, (0,0) first."""

    def test_block_layout(self):
        one, two = _Recorder(), _Recorder()
        assert [start for start, _, _ in play_match(one, two, 3)] == [0, 3, 6, 9]
        expected = np.repeat([[0, 0], [0, 1], [1, 0], [1, 1]], 3, axis=0)
        assert np.array_equal(np.column_stack([_seen(one)[0], _seen(two)[0]]), expected)
        assert np.array_equal(_seen(one)[1], np.arange(12))

    @given(st.integers(min_value=1, max_value=50))
    def test_each_pair_appears_exactly_r_times(self, r):
        one, two = _Recorder(), _Recorder()
        played(one, two, r)
        states_one, states_two = _seen(one)[0], _seen(two)[0]
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
        assert np.array_equal(_seen(one)[0], sched[:, 0])
        assert np.array_equal(_seen(two)[0], sched[:, 1])

    def test_both_players_see_identical_round_indices(self):
        one, two = _Recorder(), _Recorder()
        played(one, two, 4)
        assert [(start, n) for start, n, _ in one.seen] == [(start, n) for start, n, _ in two.seen]
        assert np.array_equal(_seen(one)[1], np.arange(16))

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
            def moves(self, start, n, state):
                return np.full(n, 7, dtype=np.uint8)

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
        # one call per player per whole block gives the same moves
        r = _ragged_rounds(chunk_rounds)
        recorded = reference_match(*shipped_pair(family), r)
        move_one, move_two = played(*shipped_pair(family), r)
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

    def test_non_binary_entries_rejected(self):
        class Two:
            def moves(self, start, n, state):
                return np.where(_rounds(start, n) == 5, 2, 0).astype(np.uint8)

        with pytest.raises(ValueError, match="moves must be 0"):
            played(ConstantStrategy(0), Two(), 2)

    @pytest.mark.parametrize("bad", [256, -255, -1, 0.7, 1.9, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("container", [np.asarray, list], ids=["array", "list"])
    def test_values_are_checked_before_the_cast(self, bad, container):
        # a cast to uint8 first would play 256 and 0.7 as A, 1.9 and -255
        # as B, overflow on a list holding -1 and warn on NaN
        class Off:
            def moves(self, start, n, state):
                return container(np.where(_rounds(start, n) == 5, bad, 0).tolist())

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
            def moves(self, start, n, state):
                return convert((_rounds(start, n) % 3 == 0).astype(np.uint8))

        chunks = list(play_match(Converted(), ConstantStrategy(0), 3))
        assert all(one.dtype == np.uint8 for _, one, _ in chunks)
        assert np.concatenate([one for _, one, _ in chunks]).tolist() == [1, 0, 0] * 4

    def test_mismatched_columns_rejected(self):
        class Long:
            def moves(self, start, n, state):
                return np.zeros(n + 1, dtype=np.uint8)

        with pytest.raises(ValueError, match=r"returned \(3,\), expected \(2,\)"):
            played(Long(), ConstantStrategy(0), 2)


class TestEmpiricalProfile:
    def test_hand_built_counts(self, monkeypatch):
        # (0,0): 2 rounds, 1 mismatch; (0,1): 2/0; (1,0): 2/2; (1,1): 2/2
        class Scripted:
            def __init__(self, moves):
                self.table = np.array(moves, dtype=np.uint8)

            def moves(self, start, n, state):
                return self.table[start : start + n]

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
        recorded = reference_profile(reference_match(*players, r))
        assert match_profile(*players, r) == recorded

    def test_strategies_see_the_whole_match_in_order(self, chunk_rounds):
        # the arbiter's coverage: chunks of plain ints that partition the
        # rounds in order, never cross a block, reach both players alike
        # and carry each player's own state of the block's pair
        r = _ragged_rounds(chunk_rounds)
        one, two = _Recorder(), _Recorder(1)
        match_profile(one, two, r)
        assert len(one.seen) == 4 * -(-r // chunk_rounds)  # ceil, per block
        assert [(start, n) for start, n, _ in one.seen] == [(start, n) for start, n, _ in two.seen]
        ends = [start + n for start, n, _ in one.seen]
        assert [start for start, _, _ in one.seen] == [0, *ends[:-1]] and ends[-1] == 4 * r
        for player, recorder in enumerate((one, two)):
            for start, n, state in recorder.seen:
                assert all(type(x) is int for x in (start, n, state))
                assert 1 <= n <= chunk_rounds
                assert start // r == (start + n - 1) // r  # no chunk crosses a block
                assert state == STATE_PAIRS[start // r][player]

    def test_walk_queries_each_block_in_chunks(self, chunk_rounds):
        # block k starts at k * r and is asked for in chunks of c rounds, then the
        # remainder, each with the player's own state of STATE_PAIRS[k]
        c, r = chunk_rounds, _ragged_rounds(chunk_rounds)
        sizes = [c] * (r // c) + [r % c]  # the ragged r leaves a remainder
        assert 0 < r % c < c and len(sizes) >= 4
        one, two = _Recorder(), _Recorder(1)
        played(one, two, r)
        for player, recorder in enumerate((one, two)):
            expected = [
                (k * r + m * c, n, pair[player])
                for k, pair in enumerate(STATE_PAIRS)
                for m, n in enumerate(sizes)
            ]
            assert recorder.seen == expected

    @pytest.mark.parametrize(
        "r, message",
        [
            (0, "rounds_per_state_pair must be >= 1"),
            (-1, "rounds_per_state_pair must be >= 1"),
            (2**61 + 1, f"rounds_per_state_pair={2**61 + 1} exceeds 2**61: round indices overflow int64"),
        ],
        ids=["zero", "negative", "beyond-int64"],
    )
    def test_rejects_bad_round_count(self, monkeypatch, r, message):
        # every play of the block schedule makes play_match's two checks before it draws
        def no_draw(*args):
            raise AssertionError("a rejected count must draw no coin")

        monkeypatch.setattr(quantum._SingletSource, "count_mismatches", no_draw)
        plays = (
            game._checked_rounds,
            lambda r: play_match(_Untouchable(), _Untouchable(), r),
            lambda r: match_profile(_Untouchable(), _Untouchable(), r),
            lambda r: quantum_match_profile(GeneralAnglePlan.equally_spaced(0.3), 0, r),
        )
        for play in plays:
            with pytest.raises(ValueError) as info:
                play(r)
            assert str(info.value) == message

    def test_accepts_the_largest_round_count(self):
        class Stop(Exception):
            pass

        class FirstChunk:
            def moves(self, start, n, state):
                raise Stop(start, n)

        with pytest.raises(Stop) as info:
            match_profile(FirstChunk(), _Untouchable(), 2**61)
        assert info.value.args == (0, MATCH_CHUNK_ROUNDS)

    def test_a_float64_chunk_column_stays_below_the_mmap_threshold(self):
        # glibc's default: larger blocks are mapped and faulted in afresh per chunk
        assert MATCH_CHUNK_ROUNDS * 8 < 128 * 1024

    def test_rejects_bad_strategy_output(self, chunk_rounds):
        r = _ragged_rounds(chunk_rounds)
        for bad_round in (9, 4 * r - 1):

            class BadLate:
                """Valid moves, except a 7 in one late round."""

                def moves(self, start, n, state):
                    return np.where(_rounds(start, n) == bad_round, 7, 0).astype(np.uint8)

            with pytest.raises(ValueError, match="moves must be 0"):
                played(BadLate(), ConstantStrategy(0), r)
            with pytest.raises(ValueError, match="moves must be 0"):
                match_profile(BadLate(), ConstantStrategy(0), r)

    def test_rejects_wrong_length_output(self, monkeypatch):
        class Short:
            def moves(self, start, n, state):
                return np.zeros(n - 1, dtype=np.uint8)

        for chunk in (MATCH_CHUNK_ROUNDS, 7):
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            r = _ragged_rounds(chunk)
            with pytest.raises(ValueError, match="expected"):
                played(ConstantStrategy(0), Short(), r)
            with pytest.raises(ValueError, match="expected"):
                match_profile(ConstantStrategy(0), Short(), r)


@pytest.mark.parametrize("family", ["classical", "quantum"])
def test_empty_batch_is_answered_with_no_moves(family):
    # an empty batch draws nothing: the next batch is a fresh pair's first
    one, two = shipped_pair(family)
    for player in (one, two):
        moves = np.asarray(player.moves(0, 0, 0))
        assert moves.shape == (0,) and moves.dtype == np.uint8
    fresh_one, fresh_two = shipped_pair(family)
    assert np.array_equal(one.moves(0, 5, 1), fresh_one.moves(0, 5, 1))
    assert np.array_equal(two.moves(0, 5, 0), fresh_two.moves(0, 5, 0))


@pytest.mark.parametrize("family", ["classical", "quantum"])
@pytest.mark.parametrize("bad_player", [1, 2])
@pytest.mark.parametrize("bad", [2, 255, -1, 0.5, np.nan], ids=["two", "255", "minus-one", "half", "nan"])
def test_rejects_a_state_other_than_zero_or_one(family, bad_player, bad):
    # the classical strategy played 255 as state 1; the flat p_same table
    # would read a singlet state pair (0, 2) as (1, 0) and (0, -1) as (1, 1)
    one, two = shipped_pair(family)
    if bad_player == 1:
        with pytest.raises(ValueError, match=r"^states must be 0 or 1$"):
            one.moves(0, 4, bad)
        # the rejected chunk drew no coins
        fresh_one, _ = shipped_pair(family)
        assert np.array_equal(one.moves(0, 4, 0), fresh_one.moves(0, 4, 0))
    else:
        one.moves(0, 4, 0)
        with pytest.raises(ValueError, match=r"^states must be 0 or 1$"):
            two.moves(0, 4, bad)


@pytest.mark.parametrize("family", ["classical", "quantum"])
@pytest.mark.parametrize("kind", [np.uint8, np.int64, bool], ids=["uint8", "int64", "bool"])
def test_accepts_states_zero_and_one_of_any_integer_type(family, kind):
    # a state read off a schedule array plays as the plain int it equals
    one, two = shipped_pair(family)
    plain_one, plain_two = shipped_pair(family)
    for state_one, state_two in ((1, 0), (0, 1)):
        assert np.array_equal(one.moves(0, 9, kind(state_one)), plain_one.moves(0, 9, state_one))
        assert np.array_equal(two.moves(0, 9, kind(state_two)), plain_two.moves(0, 9, state_two))


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

    @given(profiles(min_denom=1e-9), st.integers(min_value=1, max_value=2**61))
    def test_halfwidth_bits_of_the_scalar_formula(self, p, n):
        # the formula on Python floats, as the half-width was computed before it read q whole
        q00, qmax = p.q00, max(p.q01, p.q10, p.q11)
        var_num = q00 * (1.0 - q00) / n
        var_den = qmax * (1.0 - qmax) / n
        var_ratio = var_num / qmax**2 + q00**2 * var_den / qmax**4
        halfwidth = confidence_halfwidth(p, n)
        assert isinstance(halfwidth, float)
        assert halfwidth == 1.96 * float(np.sqrt(var_ratio))

    def test_halfwidth_of_a_column_profile_is_one_per_row(self):
        # within 1 ulp of each row's own call: an array squares by
        # multiplication, a scalar by libm pow
        rows = np.random.default_rng(5).uniform(1e-6, 1.0, size=(2000, 4))
        rows[:3] = 0.1  # rows of one profile, which once raised numpy's ambiguous truth value error
        column = confidence_halfwidth(MismatchProfile(*rows.T), 1000)
        single = np.array([confidence_halfwidth(MismatchProfile(*row), 1000) for row in rows.tolist()])
        assert column.shape == (2000,)
        assert np.all(np.abs(column - single) <= np.spacing(single))

    def test_halfwidth_needs_samples(self):
        with pytest.raises(ValueError, match="samples_per_state_pair must be >= 1"):
            confidence_halfwidth(MismatchProfile(0.3, 0.1, 0.1, 0.1), 0)

    def test_halfwidth_raises_as_payoff_does(self):
        with pytest.raises(DegenerateProfile):
            confidence_halfwidth(MismatchProfile(0.0, 0.0, 0.0, 0.0), 100)
        with pytest.raises(ValueError, match="overflows"):
            confidence_halfwidth(MismatchProfile(1.0, 1e-310, 0.0, 0.0), 100)

    def test_halfwidth_of_a_column_raises_on_any_bad_row(self):
        good = (0.3, 0.1, 0.1, 0.1)
        with pytest.raises(DegenerateProfile):
            confidence_halfwidth(MismatchProfile(*np.array([good, (0.0, 0.0, 0.0, 0.0)]).T), 100)
        with pytest.raises(ValueError, match="overflows"):
            confidence_halfwidth(MismatchProfile(*np.array([(1.0, 1e-310, 0.0, 0.0), good]).T), 100)
