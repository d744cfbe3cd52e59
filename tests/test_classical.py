"""Shared-sequence generation, Hamming distances, and the classical strategy."""

import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordgame import classical
from coordgame.classical import (
    _FLIP_BLOCK,
    BitSequenceSet,
    ClassicalConfig,
    InfeasibleFlipCount,
    LengthMismatch,
    SequenceStrategy,
    analytic_classical_profile,
    classical_strategy,
    flip_count,
    generate_sequences,
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


def hamming_distance(a, b) -> int:
    """Hamming distance between bit sequences a and b, as ``BitSequenceSet.distance`` counts it.

    Each sequence is checked as a set's ``base``, b against a's length, and
    the distance is that of a set with a as sequence 0 and b as sequence 1.
    """
    x = BitSequenceSet(a, np.zeros(len(a), np.uint8)).base
    y = BitSequenceSet(b, np.zeros(len(x), np.uint8)).base
    return BitSequenceSet(x, x ^ y).distance(0, 1)


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
        x = [seqs.sequence(k) for k in range(4)]
        steps = [x[0] ^ x[1], x[1] ^ x[2], x[2] ^ x[3]]
        for u, v in itertools.combinations(steps, 2):
            assert not np.any(u & v)
        assert all(int(s.sum()) == 60 for s in steps)

    def test_deterministic_per_seed(self):
        cfg = ClassicalConfig(n=64, q=0.1, seed=21)
        a, b = generate_sequences(cfg), generate_sequences(cfg)
        assert all(np.array_equal(a.sequence(k), b.sequence(k)) for k in range(4))
        other = generate_sequences(ClassicalConfig(n=64, q=0.1, seed=22))
        assert any(not np.array_equal(a.sequence(k), other.sequence(k)) for k in range(4))

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
    """The four sequences drawn the plain way: an int64 step column, uint8 flip masks."""
    rng = np.random.default_rng(seed)
    seqs = [rng.integers(0, 2, size=n, dtype=np.uint8)]
    if mode == "disjoint-flips":
        f = flip_count(q, n)
        steps = np.zeros(n, dtype=np.int64)
        left = [n - 3 * f, f, f, f]
        for lo in range(0, n, _FLIP_BLOCK):
            size = min(_FLIP_BLOCK, n - lo)
            counts = rng.multivariate_hypergeometric(left, size).tolist()
            left = [a - b for a, b in zip(left, counts)]
            places = rng.choice(size, size - counts[0], replace=False)
            steps[lo + places] = [1] * counts[1] + [2] * counts[2] + [4] * counts[3]
        for step in range(3):
            seqs.append(seqs[-1] ^ (steps == 1 << step).astype(np.uint8))
    else:
        for _ in range(3):
            seqs.append(seqs[-1] ^ (rng.random(n) < q).astype(np.uint8))
    return seqs


def _encoded(*sequences) -> BitSequenceSet:
    """The set of four explicit sequences: base x0, step bit s - 1 set where x_s and x_(s-1) differ."""
    x = [np.asarray(seq, dtype=np.uint8) for seq in sequences]
    return BitSequenceSet(x[0], sum((x[s] ^ x[s - 1]) << (s - 1) for s in (1, 2, 3)).astype(np.uint8))


class TestGenerateSequences:
    # n on each side of 2**8 and 2**16, one block of the flip draw and one
    # position over it, and over several blocks and slices of the channel draw
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 15_360, 15_361, 65_535, 65_536, 65_537, 100_003])
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("seed", [0, 9])
    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_bytes_equal_the_reference_draw(self, n, q, seed, mode):
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, mode=mode, seed=seed))
        for k, want in enumerate(_reference_sequences(n, q, mode, seed)):
            got = seqs.sequence(k)
            assert got.dtype == np.uint8
            assert got.tobytes() == want.tobytes()

    def test_flip_steps_are_a_uniform_assignment(self):
        # n = 4, f = 1: each of the 4!/1! = 24 ways to give steps 1, 2, 3 one
        # position each is equally likely; 70.55 is chi2.isf(1e-6, 23)
        seeds = 4_800
        counts = {}
        for seed in range(seeds):
            flips = generate_sequences(ClassicalConfig(n=4, q=0.25, seed=seed)).flips
            key = tuple(int(np.flatnonzero(flips == 1 << step)[0]) for step in range(3))
            counts[key] = counts.get(key, 0) + 1
        assert sorted(counts) == sorted(itertools.permutations(range(4), 3))
        expected = seeds / 24
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 70.55

    def test_flips_per_block_follow_the_hypergeometric_law(self):
        # N = 2 blocks and 7, f = 2: of the 6 flipped positions, k fall in
        # block 0 with probability C(6, k) C(N - 6, B - k) / C(N, B);
        # 38.26 is chi2.isf(1e-6, 6)
        n, seeds = 2 * _FLIP_BLOCK + 7, 2_000
        assert flip_count(2 / n, n) == 2
        observed = np.zeros(7)
        for seed in range(seeds):
            flips = generate_sequences(ClassicalConfig(n=n, q=2 / n, seed=seed)).flips
            observed[np.count_nonzero(flips[:_FLIP_BLOCK])] += 1
        law = [math.comb(6, k) * math.comb(n - 6, _FLIP_BLOCK - k) / math.comb(n, _FLIP_BLOCK) for k in range(7)]
        assert sum((o - seeds * p) ** 2 / (seeds * p) for o, p in zip(observed, law)) < 38.26

    @pytest.mark.parametrize(
        "n, q",
        [(1, 0.3), (1_000, 0.0), (3, 0.3333), (3 * _FLIP_BLOCK + 3, 1 / 3), (2 * _FLIP_BLOCK + 7, 0.1), (_FLIP_BLOCK + 1, 0.3)],
        ids=["n-1", "f-0", "3f-is-n", "3f-is-n-over-blocks", "ragged-7", "ragged-1"],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_step_flips_exactly_f_positions(self, n, q, seed):
        f = flip_count(q, n)
        seqs = generate_sequences(ClassicalConfig(n=n, q=q, seed=seed))
        assert np.isin(seqs.flips, [0, 1, 2, 4]).all()
        assert [int(np.count_nonzero(seqs.flips == 1 << step)) for step in range(3)] == [f, f, f]
        for a, b in itertools.combinations(range(4), 2):
            assert seqs.distance(a, b) == f * (b - a)

    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_draw_does_not_depend_on_the_chunk_size(self, monkeypatch, mode):
        config = ClassicalConfig(n=100_003, q=0.1, mode=mode, seed=3)
        want = generate_sequences(config)
        for chunk in (7, 4_096, 2**20):
            monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
            monkeypatch.setattr(classical, "MATCH_CHUNK_ROUNDS", chunk)
            got = generate_sequences(config)
            assert got.base.tobytes() == want.base.tobytes(), chunk
            assert got.flips.tobytes() == want.flips.tobytes(), chunk

    @pytest.mark.parametrize("mode", ["disjoint-flips", "bsc-chain"])
    def test_draw_memory_is_bounded(self, mode):
        # the two one-byte columns the set keeps, and no N-long temporary:
        # an index permutation or a float64 channel pass is 4 to 8 bytes per position
        n = 10**6
        config = ClassicalConfig(n=n, q=0.1, mode=mode, seed=1)
        np.random.default_rng(0).random(1)  # numpy.random loads on first use, outside the trace
        tracemalloc.start()
        try:
            generate_sequences(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * n

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
    def test_draw_and_match_grow_a_fresh_process_by_at_most_3_mib(self):
        # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the RSS of the
        # process it was forked from.  The two columns are 2 MiB at N = 1e6.
        code = (
            "def hwm():  # the peak resident set, in KiB\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status if line.startswith('VmHWM:'))\n"
            "import numpy as np\n"
            "import coordgame.cli\n"
            "from coordgame.classical import ClassicalConfig, classical_strategy, generate_sequences\n"
            "from coordgame.game import match_profile\n"
            "np.random.default_rng(0).random(1)\n"
            "before = hwm()\n"
            "sequences = generate_sequences(ClassicalConfig(n=10**6, q=0.1, seed=1))\n"
            "match_profile(classical_strategy(1, sequences), classical_strategy(2, sequences), 10**6)\n"
            "print(hwm() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 3 * 1024


class TestBitSequenceSet:
    @pytest.mark.parametrize("lengths", [(4, 5), (5, 4), (3, 2)])
    def test_unequal_lengths_rejected(self, lengths):
        with pytest.raises(LengthMismatch):
            BitSequenceSet(np.zeros(lengths[0], dtype=np.uint8), np.zeros(lengths[1], dtype=np.uint8))
        with pytest.raises(LengthMismatch):
            BitSequenceSet([0] * lengths[0], [1] * lengths[1])

    @pytest.mark.parametrize("bad", [[0, 2], [[0, 1]], [0.5, 1], [0, -1]], ids=["two", "2-d", "half", "minus-one"])
    def test_rejects_a_base_that_is_not_one_dimensional_bits(self, bad):
        with pytest.raises(ValueError):
            BitSequenceSet(bad, [0, 1])

    @pytest.mark.parametrize(
        "bad",
        [np.array([0, 8], dtype=np.uint8), np.array([0, 255], dtype=np.uint8), [0, 8], [0, 256], [0, -1],
         [0, 0.5], [0, np.nan], ["1", "2"], [[0, 1]]],
        ids=["uint8-8", "uint8-255", "eight", "256", "minus-one", "half", "nan", "digits", "2-d"],
    )
    def test_rejects_flips_that_are_not_steps(self, bad):
        # a cast to uint8 first would read 8 and 256 as no step and 0.5 as 0
        with pytest.raises(ValueError):
            BitSequenceSet([0, 1], bad)

    def test_sequences_are_write_protected(self):
        seqs = generate_sequences(ClassicalConfig(n=8, q=0.125, seed=0))
        with pytest.raises(ValueError):
            seqs.base[0] ^= 1
        with pytest.raises(ValueError):
            seqs.flips[0] ^= 1

    def test_callers_arrays_stay_writable(self):
        base, flips = np.array([0, 1, 1, 0], dtype=np.uint8), np.array([7, 0, 1, 4], dtype=np.uint8)
        seqs = BitSequenceSet(base, flips)
        assert base.flags.writeable and flips.flags.writeable
        assert not seqs.base.flags.writeable and not seqs.flips.flags.writeable
        base[0], flips[0] = 1, 2
        assert seqs.base[0] == 1 and seqs.flips[0] == 2  # views share the caller's memory, no copy

    def test_columns_are_kept_as_read_only_uint8(self):
        caller = np.array([0, 1, 1], dtype=np.uint8)
        seqs = BitSequenceSet(caller, [True, False, True])
        for column in (seqs.base, seqs.flips):
            assert column.dtype == np.uint8
            assert not column.flags.writeable
        assert seqs.flips.tolist() == [1, 0, 1]
        assert BitSequenceSet([1.0, 0.0], np.array([7, 3], dtype=np.int64)).flips.tolist() == [7, 3]
        assert caller.flags.writeable
        assert np.shares_memory(seqs.base, caller)

    @given(st.integers(min_value=0, max_value=300).flatmap(lambda n: st.lists(st.lists(
        st.integers(min_value=0, max_value=1), min_size=n, max_size=n), min_size=4, max_size=4)))
    def test_any_four_sequences_read_back(self, sequences):
        seqs = _encoded(*sequences)
        for k, want in enumerate(sequences):
            got = seqs.sequence(k)
            assert got.dtype == np.uint8
            assert got.tolist() == want
            assert got.flags.writeable
            assert not np.shares_memory(got, seqs.base) and not np.shares_memory(got, seqs.flips)
        for a, b in itertools.product(range(4), repeat=2):
            assert seqs.distance(a, b) == int(np.count_nonzero(np.array(sequences[a]) != np.array(sequences[b])))

    @pytest.mark.parametrize("bad", [4, -1, 1.0, "1", None])
    def test_sequence_indices_are_checked(self, bad):
        seqs = _encoded([0, 1], [1, 1], [1, 0], [0, 0])
        with pytest.raises(ValueError, match="sequence index"):
            seqs.sequence(bad)
        with pytest.raises(ValueError, match="sequence index"):
            seqs.distance(0, bad)
        with pytest.raises(ValueError, match="sequence index"):
            seqs.distance(bad, 0)


def _random_set(n: int, seed: int) -> BitSequenceSet:
    """A set whose flips take all eight step patterns."""
    rng = np.random.default_rng(seed)
    return BitSequenceSet(rng.integers(0, 2, size=n, dtype=np.uint8), rng.integers(0, 8, size=n, dtype=np.uint8))


class TestSequenceStrategy:
    def test_state_selects_sequence(self):
        seqs = _encoded([0, 0], [1, 1], [0, 1], [1, 0])
        s = SequenceStrategy(seqs, 0, 1)
        assert np.array_equal(s.moves(0, 4, 0), [0, 0, 0, 0])
        assert np.array_equal(s.moves(0, 4, 1), [1, 1, 1, 1])
        s = SequenceStrategy(seqs, 3, 2)
        assert np.array_equal(s.moves(0, 4, 0), [1, 0, 1, 0])
        assert np.array_equal(s.moves(0, 4, 1), [0, 1, 0, 1])

    def test_round_index_wraps_modulo_length(self):
        s = SequenceStrategy(_encoded([0, 1, 1], [0, 0, 0], [1, 1, 1], [1, 0, 0]), 0, 1)
        out = s.moves(0, 7, 0)
        assert np.array_equal(out, [0, 1, 1, 0, 1, 1, 0])

    @given(
        window=round_windows(),
        k=st.integers(min_value=0, max_value=3),
        state=st.sampled_from([0, 1]),
        mode=st.sampled_from(["disjoint-flips", "bsc-chain"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_consecutive_windows_equal_the_modulo_reference(self, window, k, state, mode, seed):
        n, start, length = window
        seqs = generate_sequences(ClassicalConfig(n=n, q=0.25, mode=mode, seed=seed))
        strategy = SequenceStrategy(seqs, k, 3 - k)
        out = strategy.moves(start, length, state)
        expected = seqs.sequence(3 - k if state else k)[np.arange(start, start + length, dtype=np.int64) % n]
        assert out.dtype == np.uint8
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, seqs.base)
        assert not np.shares_memory(out, seqs.flips)

    def test_a_consecutive_chunk_builds_no_position_column(self):
        # an int64 position per round would take MATCH_CHUNK_ROUNDS * 8 bytes
        # on its own, and a wrap that repeated the whole sequence 10**6
        seqs = _random_set(10**6, 0)
        for k in range(4):
            strategy = SequenceStrategy(seqs, k, k)
            for start in (3 * 10**6 + 5_000, 4 * 10**6 - 100):  # inside the sequence, wrapping its end
                tracemalloc.start()
                try:
                    strategy.moves(start, MATCH_CHUNK_ROUNDS, 1)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < MATCH_CHUNK_ROUNDS * 8, (k, start)

    @pytest.mark.parametrize("state", [0, 1])
    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "first, length",
        [(3, 5), (0, 10), (6, 4), (7, 5), (10**12 + 8, 6), (3, 17), (3, 18), (3, 25), (10, 30)],
        ids=["inside", "whole", "ends-at-n", "wraps", "wraps-far-on", "wraps-to-first", "wraps-past-first",
             "longer-than-n", "whole-laps"],
    )
    def test_constant_states_equal_the_modulo_reference(self, state, index, first, length):
        n = 10
        s0 = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1], dtype=np.uint8)
        sequences = [s0, 1 - s0, np.roll(s0, 3), np.roll(1 - s0, 7)]
        seqs = _encoded(*sequences)
        strategy = SequenceStrategy(seqs, index, 3 - index)
        out = strategy.moves(first, length, state)
        expected = sequences[3 - index if state else index][np.arange(first, first + length) % n]
        assert out.dtype == np.uint8
        assert out.tobytes() == expected.tobytes()
        assert not np.shares_memory(out, seqs.base)
        assert not np.shares_memory(out, seqs.flips)

    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("start", [0, 5, 10**12 + 3])
    def test_a_chunk_over_a_short_sequence_equals_the_modulo_reference(self, n, start):
        # a whole chunk laps a sequence shorter than it thousands of times
        seqs = _random_set(n, n)
        rounds = np.arange(start, start + MATCH_CHUNK_ROUNDS, dtype=np.int64) % n
        for k, state in itertools.product(range(4), (0, 1)):
            out = SequenceStrategy(seqs, k, 3 - k).moves(start, MATCH_CHUNK_ROUNDS, state)
            assert out.tobytes() == seqs.sequence(3 - k if state else k)[rounds].tobytes(), (k, state)

    @pytest.mark.parametrize("chunk", [MATCH_CHUNK_ROUNDS, 7], ids=["real-chunk", "chunk-7"])
    def test_moves_equal_the_modulo_reference(self, monkeypatch, chunk):
        # through the arbiter: in round t, player one plays x0 or x2 and
        # player two x3 or x1 at position t % N, by the block's state pair
        monkeypatch.setattr(game, "MATCH_CHUNK_ROUNDS", chunk)
        r = 3 * chunk + 17
        n = 1_009  # prime, so the sequences wrap at a different place in every chunk
        seqs = generate_sequences(ClassicalConfig(n=n, q=0.1, seed=4))
        x = [seqs.sequence(k) for k in range(4)]
        move_one, move_two = played(classical_strategy(1, seqs), classical_strategy(2, seqs), r)
        sched = block_schedule(r)
        positions = np.arange(4 * r) % n
        assert np.array_equal(move_one, np.where(sched[:, 0] == 1, x[2][positions], x[0][positions]))
        assert np.array_equal(move_two, np.where(sched[:, 1] == 1, x[1][positions], x[3][positions]))

    @pytest.mark.parametrize("state", [0, 1])
    @pytest.mark.parametrize("index, columns", [(0, 1), (1, 1), (2, 2), (3, 2)], ids=["mask-0", "mask-1", "mask-3", "mask-7"])
    def test_constant_states_copy_one_window_only(self, state, index, columns):
        # masks 0 and 1: one k-byte column, the moves; masks 3 and 7 also hold
        # one shift temporary while the parity folds into bit 0
        k = MATCH_CHUNK_ROUNDS
        strategy = SequenceStrategy(_random_set(10**6, 0), index, index)
        tracemalloc.start()
        try:
            strategy.moves(5_000, k, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < columns * k + 4096

    def test_empty_sequences_raise(self):
        with pytest.raises(ValueError, match="empty") as caught:
            SequenceStrategy(BitSequenceSet([], []), 0, 1)
        assert type(caught.value) is ValueError

    @pytest.mark.parametrize("bad", [4, -1, 1.5, "1", None])
    def test_rejects_indices_that_are_not_0_to_3(self, bad):
        seqs = _encoded([0, 1], [1, 1], [1, 0], [0, 0])
        with pytest.raises(ValueError, match="sequence index"):
            SequenceStrategy(seqs, bad, 0)
        with pytest.raises(ValueError, match="sequence index"):
            SequenceStrategy(seqs, 0, bad)

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
        assert (one.index_state0, one.index_state1) == (0, 2)
        assert (two.index_state0, two.index_state1) == (3, 1)
        assert one.sequences is seqs and two.sequences is seqs  # the set itself, not copies
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
