"""Shared-sequence generation, Hamming distances, and the classical strategy."""

import itertools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame.classical import (
    BitSequenceSet,
    ClassicalConfig,
    InfeasibleFlipCount,
    LengthMismatch,
    SequenceStrategy,
    analytic_classical_profile,
    classical_strategy,
    flip_count,
    generate_sequences,
    hamming_distance,
)
from coordgame import game
from coordgame.game import MATCH_CHUNK_ROUNDS, match_profile, payoff
from helpers import block_schedule, played

bits = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)
INT64 = np.iinfo(np.int64)


@st.composite
def round_windows(draw):
    """(n, first round, length): consecutive rounds near a multiple of n, 2**62 or an int64 end."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=10**6)))
    length = draw(st.integers(min_value=1, max_value=3 * MATCH_CHUNK_ROUNDS))
    near = st.integers(min_value=-3 * MATCH_CHUNK_ROUNDS, max_value=3 * MATCH_CHUNK_ROUNDS)
    start = draw(
        st.one_of(
            st.builds(lambda m, d: m * n + d, st.integers(min_value=0, max_value=2**40), near),
            st.builds(lambda d: 2**62 + d, near),
            st.builds(lambda d: INT64.max - length + 1 - abs(d), near),
            st.builds(lambda d: INT64.min + abs(d), near),
        )
    )
    return n, start, length


class TestHammingDistance:
    def test_known_values(self):
        assert hamming_distance([0, 0, 0, 0], [0, 1, 0, 1]) == 2
        assert hamming_distance([1, 1, 0], [1, 1, 0]) == 0
        assert hamming_distance([1], [0]) == 1
        assert hamming_distance([0, 1, 1, 0], np.array([1, 1, 1, 1])) == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hamming_distance([0, 1], [0, 1, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            hamming_distance([0, 2], [0, 1])

    @pytest.mark.parametrize("bad", [256, -255, -1, 1.5, 0.7, np.nan])
    def test_values_are_checked_before_the_cast(self, bad):
        # a cast to uint8 first would read [256, 1] as [0, 1] and [0, 1.5] as [0, 1]
        with pytest.raises(ValueError, match="^bit sequence entries must be 0 or 1$"):
            hamming_distance(np.array([bad, 1]), [0, 1])
        with pytest.raises(ValueError, match="^bit sequence entries must be 0 or 1$"):
            hamming_distance([0, 1], np.array([0, bad]))

    def test_any_dtype_of_zeros_and_ones_reads_as_bits(self):
        a = [0, 1, 1, 0]
        for other in (np.array([1, 1, 0, 0], dtype=bool), np.array([1.0, 1.0, 0.0, 0.0]), [1, 1, 0, 0]):
            assert hamming_distance(a, other) == 2

    @given(bits, bits)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        assert hamming_distance(a[:n], b[:n]) == hamming_distance(b[:n], a[:n])

    @given(bits.flatmap(lambda a: st.tuples(st.just(a), bits, bits)))
    def test_triangle_inequality(self, abc):
        a, b, c = abc
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], b[:n], c[:n]
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)


class TestConfig:
    def test_flip_count_rounds_to_nearest(self):
        assert flip_count(0.1, 1000) == 100
        assert flip_count(0.05, 10**6) == 50_000
        assert flip_count(0.0149, 100) == 1

    def test_infeasible_flip_fraction_rejected(self):
        with pytest.raises(InfeasibleFlipCount):
            ClassicalConfig(n=100_000, q=0.4)

    def test_boundary_third_is_infeasible(self):
        # 3 * round(0.34 * 100) = 102 > 100
        with pytest.raises(InfeasibleFlipCount):
            ClassicalConfig(n=100, q=0.34)

    def test_bsc_mode_allows_larger_q(self):
        assert ClassicalConfig(n=100, q=0.4, mode="bsc-chain").q == 0.4

    @pytest.mark.parametrize("kwargs", [dict(n=0, q=0.1), dict(n=10, q=-0.1), dict(n=10, q=1.5), dict(n=10, q=0.1, mode="nope")])
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ClassicalConfig(**kwargs)


class TestDisjointFlips:
    def test_distances_exact_single_seed(self):
        seqs = generate_sequences(ClassicalConfig(n=1000, q=0.1, seed=0))
        for a, b in itertools.combinations(range(4), 2):
            assert seqs.distance(a, b) == 100 * abs(a - b)

    def test_flip_sets_are_disjoint(self):
        seqs = generate_sequences(ClassicalConfig(n=300, q=0.2, seed=9))
        steps = [seqs.x0 ^ seqs.x1, seqs.x1 ^ seqs.x2, seqs.x2 ^ seqs.x3]
        for u, v in itertools.combinations(steps, 2):
            assert not np.any(u & v)
        assert all(int(s.sum()) == 60 for s in steps)

    def test_deterministic_per_seed(self):
        cfg = ClassicalConfig(n=64, q=0.1, seed=21)
        a, b = generate_sequences(cfg), generate_sequences(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.sequences, b.sequences))
        other = generate_sequences(ClassicalConfig(n=64, q=0.1, seed=22))
        assert any(not np.array_equal(x, y) for x, y in zip(a.sequences, other.sequences))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_distances_exact_property(self, seed):
        seqs = generate_sequences(ClassicalConfig(n=120, q=0.25, seed=seed))
        f = 30
        for a, b in itertools.combinations(range(4), 2):
            assert seqs.distance(a, b) == f * abs(a - b)


def _odd_parity_probability(q: float) -> float:
    """P(odd number of flips over three independent BSC passes), by enumeration."""
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=3):
        p = 1.0
        for flip in pattern:
            p *= q if flip else 1.0 - q
        if sum(pattern) % 2 == 1:
            total += p
    return total


class TestBscChain:
    def test_parity_enumeration_matches_closed_form(self):
        for q in (0.01, 0.05, 0.1, 0.3, 0.5):
            assert _odd_parity_probability(q) == pytest.approx(
                3 * q - 6 * q**2 + 4 * q**3, abs=1e-15
            )

    def test_adjacent_distances_concentrate_near_qn(self):
        n, q = 200_000, 0.1
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, mode="bsc-chain", seed=7))
        sigma = np.sqrt(n * q * (1 - q))
        for a in range(3):
            assert abs(seqs.distance(a, a + 1) - n * q) < 5 * sigma

    def test_outer_distance_follows_odd_parity_rate(self):
        n, q = 200_000, 0.1
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, mode="bsc-chain", seed=7))
        rate = 3 * q - 6 * q**2 + 4 * q**3
        sigma = np.sqrt(n * rate * (1 - rate))
        assert abs(seqs.distance(0, 3) - n * rate) < 5 * sigma


def _reference_sequences(n: int, q: float, mode: str, seed: int) -> list[np.ndarray]:
    """The four sequences drawn the plain way: int64 permutation, uint8 flip masks."""
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, 2, size=n, dtype=np.uint8)]
    if mode == "disjoint-flips":
        f = flip_count(q, n)
        perm = rng.permutation(n)
        for step in range(3):
            nxt = seqs[-1].copy()
            nxt[perm[step * f : (step + 1) * f]] ^= 1
            seqs.append(nxt)
    else:
        for _ in range(3):
            seqs.append(seqs[-1] ^ (rng.random(n) < q).astype(np.uint8))
    return seqs


class TestGenerateSequences:
    # n on each side of the uint8, uint16 and uint32 index boundaries
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 65_535, 65_536, 65_537, 100_003])
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_bytes_equal_the_reference_draw(self, n, q, seed, mode):
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, mode=mode, seed=seed))
        for got, want in zip(seqs.sequences, _reference_sequences(n, q, mode, seed)):
            assert got.dtype == np.uint8
            assert got.tobytes() == want.tobytes()

    def test_draw_memory_is_bounded(self):
        # an int64 permutation alone would take 8 bytes per position
        n = 10**6
        config = ClassicalConfig(n=n, q=0.1, seed=1)
        tracemalloc.start()
        try:
            generate_sequences(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * n


class TestBitSequenceSet:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(LengthMismatch):
            BitSequenceSet(
                np.zeros(4, dtype=np.uint8),
                np.zeros(4, dtype=np.uint8),
                np.zeros(5, dtype=np.uint8),
                np.zeros(4, dtype=np.uint8),
            )

    def test_sequences_are_write_protected(self):
        seqs = generate_sequences(ClassicalConfig(n=8, q=0.125, seed=0))
        with pytest.raises(ValueError):
            seqs.x0[0] ^= 1

    def test_callers_arrays_stay_writable(self):
        arrays = [np.array([0, 1, 1, k % 2], dtype=np.uint8) for k in range(4)]
        seqs = BitSequenceSet(*arrays)
        assert all(arr.flags.writeable for arr in arrays)
        assert not any(seq.flags.writeable for seq in seqs.sequences)
        arrays[0][0] = 1
        assert seqs.x0[0] == 1  # views share the caller's memory, no copy


class TestSequenceStrategy:
    def test_state_selects_sequence(self):
        s = SequenceStrategy(np.array([0, 0], dtype=np.uint8), np.array([1, 1], dtype=np.uint8))
        assert np.array_equal(s.moves(0, 4, 0), [0, 0, 0, 0])
        assert np.array_equal(s.moves(0, 4, 1), [1, 1, 1, 1])

    def test_round_index_wraps_modulo_length(self):
        s = SequenceStrategy(np.array([0, 1, 1], dtype=np.uint8), np.array([0, 0, 0], dtype=np.uint8))
        out = s.moves(0, 7, 0)
        assert np.array_equal(out, [0, 1, 1, 0, 1, 1, 0])

    @given(
        window=round_windows(),
        state=st.sampled_from([0, 1]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_consecutive_windows_equal_the_modulo_reference(self, window, state, seed):
        n, start, length = window
        rng = np.random.default_rng(seed)
        s0, s1 = rng.integers(0, 2, size=(2, n), dtype=np.uint8)
        strategy = SequenceStrategy(s0, s1)
        out = strategy.moves(start, length, state)
        expected = (s1 if state else s0)[np.arange(start, start + length, dtype=np.int64) % n]
        assert out.dtype == np.uint8
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, strategy.seq_state0)
        assert not np.shares_memory(out, strategy.seq_state1)

    def test_a_consecutive_chunk_builds_no_position_column(self):
        # an int64 position per round would take MATCH_CHUNK_ROUNDS * 8 bytes
        # on its own, and a wrap that repeated the whole sequence 10**6
        rng = np.random.default_rng(0)
        strategy = SequenceStrategy(*rng.integers(0, 2, size=(2, 10**6), dtype=np.uint8))
        for start in (3 * 10**6 + 5_000, 4 * 10**6 - 100):  # inside the sequence, wrapping its end
            tracemalloc.start()
            try:
                strategy.moves(start, MATCH_CHUNK_ROUNDS, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < MATCH_CHUNK_ROUNDS * 8, start

    @pytest.mark.parametrize("state", [0, 1])
    @pytest.mark.parametrize(
        "first, length",
        [(3, 5), (0, 10), (6, 4), (7, 5), (10**12 + 8, 6), (3, 25), (10, 30)],
        ids=["inside", "whole", "ends-at-n", "wraps", "wraps-far-on", "longer-than-n", "whole-laps"],
    )
    def test_constant_states_equal_the_modulo_reference(self, state, first, length):
        n = 10
        s0 = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
        s1 = 1 - s0
        strategy = SequenceStrategy(s0, s1)
        out = strategy.moves(first, length, state)
        expected = (s1 if state else s0)[np.arange(first, first + length) % n]
        assert out.dtype == np.uint8
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, strategy.seq_state0)
        assert not np.shares_memory(out, strategy.seq_state1)

    @pytest.mark.parametrize("chunk", [MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
    def test_moves_equal_the_modulo_reference(self, monkeypatch, chunk):
        # through the arbiter: in round t, player one plays x0 or x2 and
        # player two x3 or x1 at position t % N, by the block's state pair
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
        r = 3 * chunk + 17
        n = 1_009  # prime, so the sequences wrap at a different place in every chunk
        seqs = generate_sequences(ClassicalConfig(n=n, q=0.1, seed=4))
        move_one, move_two = played(classical_strategy(1, seqs), classical_strategy(2, seqs), r)
        sched = block_schedule(r)
        positions = np.arange(4 * r) % n
        assert np.array_equal(move_one, np.where(sched[:, 0] == 1, seqs.x2[positions], seqs.x0[positions]))
        assert np.array_equal(move_two, np.where(sched[:, 1] == 1, seqs.x1[positions], seqs.x3[positions]))

    @pytest.mark.parametrize("state", [0, 1])
    def test_constant_states_copy_one_window_only(self, state):
        # one k-byte column: the copy of the window
        k = MATCH_CHUNK_ROUNDS
        rng = np.random.default_rng(0)
        strategy = SequenceStrategy(*rng.integers(0, 2, size=(2, 10**6), dtype=np.uint8))
        tracemalloc.start()
        try:
            strategy.moves(5_000, k, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k + 4096

    def test_unequal_lengths_raise_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            SequenceStrategy([0, 1, 1], [1, 1])

    def test_empty_sequences_raise(self):
        with pytest.raises(ValueError, match="empty") as caught:
            SequenceStrategy([], [])
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("bad", [[0, 2], [[0, 1]], [0.5, 1], [0, -1]], ids=["two", "2-d", "half", "minus-one"])
    def test_rejects_sequences_that_are_not_one_dimensional_bits(self, bad):
        with pytest.raises(ValueError):
            SequenceStrategy(bad, [0, 1])
        with pytest.raises(ValueError):
            SequenceStrategy([0, 1], bad)

    def test_sequences_are_kept_as_read_only_uint8(self):
        caller = np.array([0, 1, 1], dtype=np.uint8)
        s = SequenceStrategy(caller, [True, False, True])
        for seq in (s.seq_state0, s.seq_state1):
            assert seq.dtype == np.uint8
            assert not seq.flags.writeable
        assert s.seq_state1.tolist() == [1, 0, 1]
        assert caller.flags.writeable
        assert np.shares_memory(s.seq_state0, caller)  # a view, as BitSequenceSet holds

    def test_match_profile_memory_is_bounded(self):
        # one and ten million rounds in under 1 MiB, sequences aside
        sequences = generate_sequences(ClassicalConfig(n=100_000, q=0.1, seed=0))
        for rounds_per_pair in (250_000, 2_500_000):
            one, two = classical_strategy(1, sequences), classical_strategy(2, sequences)
            tracemalloc.start()
            try:
                match_profile(one, two, rounds_per_pair)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20, rounds_per_pair

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor page faults")
    def test_match_profile_reuses_its_chunk_buffers(self):
        # the classical twin of the singlet test: chunk copies and temporaries
        # below glibc's mmap threshold come back from the heap, not mapped afresh
        pytest.importorskip("resource")
        code = (
            "import resource\n"
            "from coordgame.classical import ClassicalConfig, classical_strategy, generate_sequences\n"
            "from coordgame.game import match_profile\n"
            "sequences = generate_sequences(ClassicalConfig(n=10**6, q=0.1, seed=1))\n"
            "one, two = classical_strategy(1, sequences), classical_strategy(2, sequences)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "match_profile(one, two, 10**6)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 2_000

    def test_player_assignments(self):
        seqs = generate_sequences(ClassicalConfig(n=32, q=0.125, seed=5))
        one, two = classical_strategy(1, seqs), classical_strategy(2, seqs)
        assert one.seq_state0 is seqs.x0 and one.seq_state1 is seqs.x2
        assert two.seq_state0 is seqs.x3 and two.seq_state1 is seqs.x1
        with pytest.raises(ValueError):
            classical_strategy(3, seqs)


class TestAnalyticProfiles:
    def test_disjoint_profile_shape(self):
        p = analytic_classical_profile(0.1)
        assert (p.q00, p.q01, p.q10, p.q11) == (
            pytest.approx(0.3),
            0.1,
            0.1,
            0.1,
        )
        assert payoff(p) == pytest.approx(3.0, abs=1e-12)

    def test_bsc_payoffs_trend_toward_three(self):
        values = [payoff(analytic_classical_profile(q, "bsc-chain")) for q in (0.1, 0.05, 0.01)]
        assert values == [
            pytest.approx(2.44, abs=1e-12),
            pytest.approx(2.71, abs=1e-12),
            pytest.approx(2.9404, abs=1e-12),
        ]
        assert values[0] < values[1] < values[2] < 3.0

    @pytest.mark.parametrize(
        "q,mode",
        [(0.0, "disjoint-flips"), (1 / 3, "disjoint-flips"), (0.0, "bsc-chain"), (0.5, "bsc-chain")],
    )
    def test_rejects_out_of_range_fractions(self, q, mode):
        with pytest.raises(ValueError):
            analytic_classical_profile(q, mode)


class TestFullCycleMatch:
    def test_block_schedule_reproduces_exact_frequencies(self):
        n, q = 100, 0.1
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, seed=13))
        prof = match_profile(classical_strategy(1, seqs), classical_strategy(2, seqs), n)
        assert prof.q00 == 3 * 10 / n
        assert prof.q01 == 10 / n
        assert prof.q10 == 10 / n
        assert prof.q11 == 10 / n
        assert payoff(prof) == pytest.approx(3.0, abs=1e-12)
