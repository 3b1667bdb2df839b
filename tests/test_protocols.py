"""Protocol-level tests: encodings, layouts, referees, and bit accounting."""

import hashlib

import numpy as np
import pytest

from distmeantest import (
    BudgetExhaustedError,
    DegenerateInputError,
    DimensionError,
    InfeasiblePartitionError,
    InsufficientPopulationError,
    ParameterError,
    PublicSeed,
    REPETITIONS,
    Decision,
    Layout,
    Transcript,
    UserSpec,
    aggregate_block,
    assemble_wraparound,
    fwht,
    greedy_partition,
    hetero_comm_protocol,
    hetero_pair_weight,
    hetero_samples_protocol,
    hetero_share,
    hetero_threshold,
    limited_coin_protocol,
    mix_and_match_protocol,
    private_coin_layout,
    private_coin_protocol,
    sign_quantize,
    wraparound_coords,
)
from distmeantest.binary_test import ACCEPT, REJECT
from distmeantest.protocols import (
    Plan,
    hetero_comm_params,
    hetero_samples_plan,
    limited_coin_params,
    mix_and_match_keep_length,
)

RNG = np.random.default_rng(20240819)


def fresh_seed(s: int, entropy: int = 0) -> PublicSeed:
    return PublicSeed.random(s, np.random.default_rng(entropy))


class TestUserSpec:
    def test_fields(self):
        u = UserSpec(m=7, ell=12)
        assert (u.m, u.ell) == (7, 12)

    @pytest.mark.parametrize("m,ell", [(0, 5), (-1, 5), (3, 0), (3, -2)])
    def test_validation(self, m, ell):
        with pytest.raises(ParameterError):
            UserSpec(m=m, ell=ell)


class TestSignQuantize:
    def test_strict_positivity(self):
        assert sign_quantize(np.array([0.3, -1.2])).tolist() == [1, 0]
        assert sign_quantize(np.array([0.0])).tolist() == [0]  # ties go to 0

    def test_shape_and_dtype(self):
        out = sign_quantize(RNG.standard_normal((3, 4, 5)))
        assert out.shape == (3, 4, 5)
        assert out.dtype == np.uint8

    def test_shifted_gaussian_frequency(self):
        from math import erf
        mu = 0.3
        draws = RNG.standard_normal(50_000) + mu
        freq = sign_quantize(draws).mean()
        expect = 0.5 * (1 + erf(mu / np.sqrt(2)))
        assert abs(freq - expect) < 0.01, f"freq={freq} expect={expect}"


class TestAggregateBlock:
    def test_block_one_is_selection(self):
        x = RNG.standard_normal((5, 9, 3))
        for t in (1, 4, 9):
            assert np.array_equal(aggregate_block(x, t, 1), x[:, t - 1, :])

    def test_second_block_of_two(self):
        x = RNG.standard_normal((14, 6))
        out = aggregate_block(x, t=2, block=2)
        # 1-based block 2 of size 2 covers 0-based samples 2 and 3
        assert np.allclose(out, (x[2] + x[3]) / np.sqrt(2))

    def test_variance_preserved(self):
        mu = 0.7
        x = RNG.standard_normal((20_000, 4, 2)) + mu
        out = aggregate_block(x, t=1, block=4)
        assert np.allclose(out.mean(axis=0), 2 * mu, atol=0.03)
        assert np.allclose(out.var(axis=0), 1.0, atol=0.05)

    @pytest.mark.parametrize("t,block", [(0, 1), (1, 0), (8, 1), (4, 2), (2, 4)])
    def test_window_out_of_range(self, t, block):
        with pytest.raises(ParameterError):
            aggregate_block(RNG.standard_normal((7, 3)), t, block)

    def test_needs_sample_axis(self):
        with pytest.raises(DimensionError):
            aggregate_block(np.arange(7.0), 1, 1)


class TestPrivateCoin:
    def test_layout_full_budget(self):
        assert private_coin_layout(10, 16, 16) == (16, 1, 10)

    def test_layout_partial_budget(self):
        # budget 2 on dimension 8: 4 users per simulated sample
        assert private_coin_layout(13, 8, 2) == (2, 4, 3)

    def test_layout_floors_budget(self):
        assert private_coin_layout(8, 8, 3) == (2, 4, 2)

    @pytest.mark.parametrize("ell", [0, -1, 9])
    def test_layout_budget_range(self, ell):
        with pytest.raises(ParameterError):
            private_coin_layout(4, 8, ell)

    def test_coordinate_block_assembly(self):
        # d=4, ell=2: users 0/1 build sample 0 from coords 0:2 and 2:4.
        samples = np.array([
            [1.0, -1.0, 5.0, -5.0],
            [-2.0, 2.0, 3.0, -3.0],
            [0.5, 0.5, -0.5, -0.5],
            [-4.0, -4.0, 4.0, 4.0],
        ])
        decision, transcript = private_coin_protocol(samples, d=4, ell=2, epsilon=0.5)
        assert decision.consistent()
        assert transcript.message(0).tolist() == [1, 0]   # quantized coords 0:2
        assert transcript.message(1).tolist() == [1, 0]   # quantized coords 2:4
        assert transcript.message(2).tolist() == [1, 1]
        assert transcript.message(3).tolist() == [1, 1]
        assert transcript.total_bits == 8

    def test_full_budget_matches_centralized(self):
        from distmeantest import bpmt_decide
        from distmeantest.protocols import SIGN_QUANTIZE_DISTANCE_FACTOR
        samples = RNG.standard_normal((40, 8)) + 0.4
        decision, transcript = private_coin_protocol(samples, d=8, ell=8, epsilon=0.9)
        expect = bpmt_decide(sign_quantize(samples), 0.9 * SIGN_QUANTIZE_DISTANCE_FACTOR)
        assert decision.verdict == expect
        assert np.array_equal(
            transcript.data.reshape(40, 8), sign_quantize(samples))

    def test_trailing_users_silent(self):
        samples = RNG.standard_normal((5, 4))
        _, transcript = private_coin_protocol(samples, d=4, ell=2, epsilon=0.5)
        assert transcript.bits_sent.tolist() == [2, 2, 2, 2, 0]

    def test_budget_respected(self):
        samples = RNG.standard_normal((32, 16))
        for ell in (1, 3, 5, 16):
            _, transcript = private_coin_protocol(samples, d=16, ell=ell, epsilon=0.5)
            assert int(transcript.bits_sent.max()) <= ell

    def test_too_few_users(self):
        with pytest.raises(InsufficientPopulationError):
            private_coin_protocol(RNG.standard_normal((1, 4)), d=4, ell=2, epsilon=0.5)

    def test_bad_dimension(self):
        with pytest.raises(DimensionError):
            private_coin_protocol(RNG.standard_normal((4, 6)), d=6, ell=2, epsilon=0.5)
        with pytest.raises(DimensionError):
            private_coin_protocol(RNG.standard_normal((4, 8)), d=4, ell=2, epsilon=0.5)

    @pytest.mark.parametrize("epsilon", [0.0, -0.5, 1.5])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ParameterError):
            private_coin_protocol(RNG.standard_normal((4, 4)), d=4, ell=2, epsilon=epsilon)


class TestLimitedCoin:
    def test_params_zero_seed(self):
        d_s, L, ell_eff, scale = limited_coin_params(d=64, ell=8, s=0)
        assert (d_s, L, ell_eff) == (64, 64, 8)
        assert scale == pytest.approx(np.sqrt(64 / (100 * 64)))

    def test_params_block_shrinks_with_seed(self):
        d_s, L, ell_eff, scale = limited_coin_params(d=64, ell=8, s=84)
        assert (d_s, L, ell_eff) == (8, 8, 8)
        assert scale == pytest.approx(np.sqrt(8 / 6400))

    def test_params_exponent_capped(self):
        d_s, L, _, _ = limited_coin_params(d=8, ell=1, s=280)
        assert (d_s, L) == (1, 1)

    def test_zero_seed_equals_private_on_rotated(self):
        # With no public randomness the seven transforms collapse to the plain
        # orthogonal rotation, so each cohort must reproduce the private-coin
        # protocol run on rotated samples, bit for bit.
        d, ell, eps, n = 8, 4, 1.0, 28
        samples = RNG.standard_normal((n, d)) + 0.3
        seed = fresh_seed(0)
        decision, transcript = limited_coin_protocol(samples, d, ell, eps, seed)
        assert transcript.public_bits_used == 0

        _, _, _, scale = limited_coin_params(d, ell, 0)
        cohort = n // REPETITIONS
        expect_accepts = []
        expect_chunks = []
        for r in range(REPETITIONS):
            rotated = fwht(samples[r * cohort:(r + 1) * cohort])
            dec_r, tr_r = private_coin_protocol(rotated, d, ell, eps * scale)
            expect_accepts.append(dec_r.verdict == ACCEPT)
            expect_chunks.append(tr_r.data)
        assert decision.repetition_accepts == tuple(expect_accepts)
        assert np.array_equal(transcript.data, np.concatenate(expect_chunks))

    def test_seed_consumption_exact(self):
        # d=64 with s=84: seven (64, 8) transforms at 4*log2(8) bits each.
        samples = RNG.standard_normal((21, 64))
        seed = fresh_seed(84)
        _, transcript = limited_coin_protocol(samples, 64, 8, 1.0, seed)
        assert transcript.public_bits_used == 84
        assert seed.remaining == 0

    def test_seed_budget_never_exceeded(self):
        for s in (0, 28, 29, 84, 200):
            seed = fresh_seed(s, entropy=s)
            _, transcript = limited_coin_protocol(
                RNG.standard_normal((112, 32)), 32, 4, 0.8, seed)
            assert transcript.public_bits_used <= s

    def test_replay_determinism(self):
        samples = RNG.standard_normal((35, 16)) + 0.2
        runs = []
        for _ in range(2):
            dec, tr = limited_coin_protocol(samples, 16, 4, 0.9, fresh_seed(56, entropy=3))
            runs.append((dec.verdict, tr.serialize(), tr.public_bits_used))
        assert runs[0] == runs[1]

    def test_too_few_users(self):
        with pytest.raises(InsufficientPopulationError):
            limited_coin_protocol(RNG.standard_normal((6, 8)), 8, 4, 0.5, fresh_seed(0))


class TestOneRowLayouts:
    # each case leaves some repetition's referee a single full row
    @pytest.mark.parametrize("run,s", [
        (lambda seed: hetero_comm_protocol(RNG.standard_normal((8, 8)), 8,
                                           np.array([7] * 4 + [14] * 4), 1.0, seed), 28),
        (lambda seed: private_coin_protocol(RNG.standard_normal((2, 8)), 8, 4, 1.0), 0),
        (lambda seed: limited_coin_protocol(RNG.standard_normal((14, 8)), 8, 4, 1.0, seed), 0),
    ], ids=["hetero_comm", "private", "limited"])
    def test_rejected_before_any_seed_bit(self, run, s):
        seed = fresh_seed(s)
        with pytest.raises(InsufficientPopulationError):
            run(seed)
        assert seed.consumed == 0


class TestSeedPlanning:
    def test_partly_used_seed_runs_within_what_is_left(self):
        # 74 of 84 bits left: d_s = 64/4, seven (64, 16) transforms at 8 bits each
        seed = fresh_seed(84)
        seed.draw_bits(10)
        _, transcript = limited_coin_protocol(RNG.standard_normal((28, 64)), 64, 8, 1.0, seed)
        assert transcript.public_bits_used == 56
        assert seed.consumed == 66

    def test_partly_used_seed_too_short_is_rejected_before_drawing(self):
        # share 2 on d=8 needs seven 8-bit transforms, but only 46 bits are left
        seed = fresh_seed(56)
        seed.draw_bits(10)
        samples = [RNG.standard_normal((7, 8)) for _ in range(3)]
        with pytest.raises(BudgetExhaustedError):
            hetero_samples_protocol(samples, np.full(3, 7), 8, 14, 1.0, seed)
        assert seed.consumed == 10

    def test_field_cap_is_rejected_before_drawing(self):
        # 476 bits fund d_s = 1, i.e. 2^17 signs per transform: beyond GF(2^16)
        d = 1 << 17
        seed = fresh_seed(476)
        with pytest.raises(ParameterError, match=r"d=131072 with s=476 .* 65536"):
            limited_coin_protocol(np.zeros((7, d)), d, 1, 1.0, seed)
        assert seed.consumed == 0


class TestHeteroShareAndWeights:
    @pytest.mark.parametrize("ell,d,expect", [
        (7, 64, 1), (14, 64, 2), (21, 64, 2), (56, 64, 8), (28, 4, 4), (500, 8, 8),
    ])
    def test_share_table(self, ell, d, expect):
        assert hetero_share(ell, d) == expect

    def test_share_needs_seven_bits(self):
        with pytest.raises(ParameterError):
            hetero_share(6, 64)

    def test_pair_weight_example(self):
        # floor(7/7)=1 and floor(28/7)=4: (1+2)^2 - 5 = 4
        assert hetero_pair_weight(np.array([7, 28])) == 4.0

    def test_pair_weight_unfloored(self):
        m = np.array([7, 28])
        expect = (np.sqrt(7) + np.sqrt(28)) ** 2 - 35
        assert hetero_pair_weight(m, block_floor=False) == pytest.approx(expect)

    def test_balanced_beats_unbalanced(self):
        balanced = hetero_pair_weight(np.array([14, 14]), block_floor=False)
        skewed = hetero_pair_weight(np.array([7, 21]), block_floor=False)
        assert balanced == pytest.approx(28.0)
        assert balanced > skewed

    def test_pair_weight_validation(self):
        with pytest.raises(ParameterError):
            hetero_pair_weight(np.array([7, 0]))

    def test_threshold_formula(self):
        # ell=7, N=2, n=2: tau = ((eps/80) * sqrt(1/d))^2 / 2
        for d in (4, 64):
            tau = hetero_threshold(1.0, ell=7, N=2.0, d=d, n=2)
            assert tau == pytest.approx(0.5 / (6400 * d), rel=1e-12)


class TestHeteroSamples:
    def test_pair_of_minimal_users(self):
        samples = [RNG.standard_normal((7, 4)), RNG.standard_normal((7, 4))]
        # share 1 on d=4: 4 sign blocks, 4*log2(4)=8 seed bits per repetition
        decision, transcript = hetero_samples_protocol(
            samples, np.array([7, 7]), d=4, ell=7, epsilon=1.0, seed=fresh_seed(56, entropy=2))
        assert decision.consistent()
        assert transcript.bits_sent.tolist() == [7, 7]
        assert transcript.public_bits_used == 56

    def test_deterministic_full_share(self):
        # ell=28 on d=4 gives share 4 = full dimension; with a zero seed the
        # rotation is the plain transform, so every transmitted bit is known.
        d, m = 4, 7
        samples = [RNG.standard_normal((m, d)) for _ in range(2)]
        _, transcript = hetero_samples_protocol(
            samples, np.array([m, m]), d=d, ell=28, epsilon=1.0, seed=fresh_seed(0))
        for k in range(2):
            expect = np.concatenate([
                sign_quantize(fwht(samples[k][t])) for t in range(REPETITIONS)])
            assert np.array_equal(transcript.message(k), expect), f"user {k}"

    def test_aggregation_uses_disjoint_blocks(self):
        # m=14: repetition t must average 0-based samples 2t-2 and 2t-1.
        d, m = 8, 14
        samples = [RNG.standard_normal((m, d)) for _ in range(2)]
        _, transcript = hetero_samples_protocol(
            samples, np.array([m, m]), d=d, ell=7 * d, epsilon=1.0, seed=fresh_seed(0))
        for k in range(2):
            expect = np.concatenate([
                sign_quantize(fwht((samples[k][2 * t] + samples[k][2 * t + 1]) / np.sqrt(2)))
                for t in range(REPETITIONS)])
            assert np.array_equal(transcript.message(k), expect), f"user {k}"

    def test_integer_samples_match_float(self):
        # block means of integer samples are not truncated to integers
        d, ms = 8, np.array([7, 14, 21, 35])
        ints = [RNG.integers(-3, 4, size=(m, d)) for m in ms]
        out = [hetero_samples_protocol(samples, ms, d, 28, 1.0, fresh_seed(56, entropy=3))
               for samples in (ints, [x.astype(np.float64) for x in ints])]
        assert out[0][0] == out[1][0]
        assert out[0][1].serialize() == out[1][1].serialize()

    def test_under_seven_samples_rejected(self):
        samples = [RNG.standard_normal((6, 4)), RNG.standard_normal((7, 4))]
        with pytest.raises(DegenerateInputError):
            hetero_samples_protocol(samples, np.array([6, 7]), 4, 7, 1.0, fresh_seed(0))

    def test_under_seven_bits_rejected(self):
        samples = [RNG.standard_normal((7, 4)) for _ in range(2)]
        with pytest.raises(ParameterError):
            hetero_samples_protocol(samples, np.array([7, 7]), 4, 6, 1.0, fresh_seed(0))

    def test_single_user_rejected(self):
        with pytest.raises(DegenerateInputError):
            hetero_samples_protocol(
                [RNG.standard_normal((7, 4))], np.array([7]), 4, 7, 1.0, fresh_seed(0))

    def test_seed_consumption(self):
        # share 2 on d=8: b=4 blocks, 4*log2(4)=8 bits per repetition.
        samples = [RNG.standard_normal((7, 8)) for _ in range(3)]
        seed = fresh_seed(56, entropy=9)
        _, transcript = hetero_samples_protocol(
            samples, np.full(3, 7), d=8, ell=14, epsilon=1.0, seed=seed)
        assert transcript.public_bits_used == 56

    def test_replay_determinism(self):
        samples = [RNG.standard_normal((14, 8)) + 0.2 for _ in range(6)]
        runs = []
        for _ in range(2):
            dec, tr = hetero_samples_protocol(
                samples, np.full(6, 14), 8, 14, 0.9, fresh_seed(56, entropy=4))
            runs.append((dec.verdict, dec.repetition_accepts, tr.serialize()))
        assert runs[0] == runs[1]


class TestWraparound:
    def test_coords_hand_layout(self):
        users, coords = wraparound_coords(np.array([3, 3, 2]), L=4)
        assert users.tolist() == [0, 0, 0, 1, 1, 1, 2, 2]
        assert coords.tolist() == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_assembly_hand_layout(self):
        q = np.array([
            [1, 0, 1, 0],
            [0, 1, 1, 1],
            [1, 1, 0, 0],
        ], dtype=np.uint8)
        sim = assemble_wraparound(q, np.array([3, 3, 2]))
        # sample 0: user0 coords 0..2 then user1 coord 3
        # sample 1: user1 coords 0..1 then user2 coords 2..3
        assert sim.tolist() == [[1, 0, 1, 1], [0, 1, 0, 0]]

    def test_homogeneous_identity(self):
        q = RNG.integers(0, 2, size=(5, 8)).astype(np.uint8)
        sim = assemble_wraparound(q, np.full(5, 8))
        assert np.array_equal(sim, q)

    def test_trailing_bits_dropped(self):
        q = RNG.integers(0, 2, size=(3, 4)).astype(np.uint8)
        sim = assemble_wraparound(q, np.array([4, 3, 2]))
        assert sim.shape == (2, 4)

    def test_underfull_stream_rejected(self):
        with pytest.raises(InsufficientPopulationError):
            assemble_wraparound(np.zeros((2, 8), dtype=np.uint8), np.array([3, 4]))

    def test_budget_beyond_length_rejected(self):
        with pytest.raises(ParameterError):
            wraparound_coords(np.array([5]), L=4)


class TestHeteroComm:
    def test_params(self):
        d_s, L, shares = hetero_comm_params(32, np.array([8, 16, 32]), s=140)
        assert (d_s, L) == (1, 32)
        assert shares.tolist() == [1, 2, 4]

    def test_params_zero_seed(self):
        d_s, L, shares = hetero_comm_params(16, np.array([7, 7]), s=0)
        assert (d_s, L) == (16, 16)
        assert shares.tolist() == [1, 1]

    def test_message_lengths(self):
        n, d = 40, 16
        ells = np.array(([7] * 20) + ([21] * 20))
        _, transcript = hetero_comm_protocol(
            RNG.standard_normal((n, d)), d, ells, 1.0, fresh_seed(0))
        assert np.array_equal(transcript.bits_sent, REPETITIONS * (ells // REPETITIONS))
        assert int((transcript.bits_sent <= ells).all())

    def test_exactly_fillable_budget(self):
        ells = np.array([7, 14, 28] * 8)
        _, transcript = hetero_comm_protocol(
            RNG.standard_normal((24, 8)), 8, ells, 1.0, fresh_seed(0))
        assert np.array_equal(transcript.bits_sent, ells)

    def test_seed_consumption(self):
        # d=32 with s=140: block length 1, 4*log2(32)=20 bits per repetition.
        seed = fresh_seed(140, entropy=5)
        _, transcript = hetero_comm_protocol(
            RNG.standard_normal((50, 32)), 32, np.full(50, 8), 1.0, seed)
        assert transcript.public_bits_used == 140
        assert seed.remaining == 0

    def test_transcript_layout_replayable(self):
        # user k's message must be its 7 wrap-around shares, repetition-major
        from distmeantest import brht_apply, sample_brht
        d, n = 16, 18
        ells = np.array([7, 15, 23] * 6)
        samples = RNG.standard_normal((n, d)) + 0.1
        _, transcript = hetero_comm_protocol(samples, d, ells, 1.0, fresh_seed(56, entropy=6))

        replay = fresh_seed(56, entropy=6)
        d_s, L, shares = hetero_comm_params(d, ells, 56)
        users, coords = wraparound_coords(shares, L)
        per_user = [[] for _ in range(n)]
        for _ in range(REPETITIONS):
            spec = sample_brht(replay, d, d_s)
            quantized = sign_quantize(brht_apply(spec, samples, keep=L))
            transmitted = quantized[users, coords]
            for k in range(n):
                lo = int(shares[:k].sum())
                per_user[k].append(transmitted[lo:lo + int(shares[k])])
        for k in range(n):
            expect = np.concatenate(per_user[k])
            assert np.array_equal(transcript.message(k), expect), f"user {k}"

    def test_underfull_population_rejected(self):
        # shares sum to 2 < L=8: no simulated sample can be assembled
        with pytest.raises(InsufficientPopulationError):
            hetero_comm_protocol(
                RNG.standard_normal((2, 8)), 8, np.array([7, 7]), 1.0, fresh_seed(0))

    def test_budget_per_user_required(self):
        with pytest.raises(DimensionError):
            hetero_comm_protocol(
                RNG.standard_normal((4, 8)), 8, np.array([7, 7]), 1.0, fresh_seed(0))


def groups_of(order: np.ndarray, sizes: np.ndarray) -> list[list[int]]:
    """The groups of a `greedy_partition` result, as lists of user indices."""
    return [group.tolist() for group in np.split(order, np.cumsum(sizes)[:-1])]


# (m, ell) of the six user kinds of acceptance criterion 8's mix_and_match
# population and of the calibrate_mix benchmark config (d = 32, s = 28, so L = 16)
MIX_KINDS = np.array([(28, 8), (56, 16), (28, 24), (56, 8), (28, 16), (56, 24)], dtype=np.int64)

# sha256 of (order, sizes) as int64 bytes for the populations of
# `test_partitions_pinned`, recorded when greedy_partition still returned a
# list of groups (order is the groups concatenated, sizes their lengths)
PARTITION_DIGESTS = {
    "criterion8-interleaved": "d1377f29444e0c5fe2e7a6a6a66eeb3aae7a5f5a064781653a4d94e781674a39",
    "calibrate_mix-x16": "71edd301ac3e8185cc46f92fb925c68c449ca5aa370ddcb159156af2e4b9f2c3",
}


class TestGreedyPartition:
    def test_rich_users_get_singletons(self):
        ms, ells = np.array([7, 21, 14]), np.array([56, 56, 56])
        assert groups_of(*greedy_partition(ms, ells, L=8)) == [[1], [2], [0]]

    def test_poor_users_grouped(self):
        groups = groups_of(*greedy_partition(np.full(16, 7), np.ones(16, dtype=np.int64), L=1))
        assert sorted(len(g) for g in groups) == [7, 9]  # trailing pair merged

    def test_total_shortfall_rejected(self):
        with pytest.raises(InfeasiblePartitionError):
            greedy_partition(np.full(55, 7), np.ones(55, dtype=np.int64), L=8)

    def test_stable_on_ties(self):
        groups = groups_of(*greedy_partition(np.full(4, 7), np.full(4, 20), L=1))
        assert groups[0] == [0]  # 20 >= 7, index order preserved among equals

    def test_covers_everyone(self):
        ms, ells = RNG.integers(7, 40, 30), RNG.integers(1, 30, 30)
        groups = groups_of(*greedy_partition(ms, ells, L=2))
        assert sorted(i for g in groups for i in g) == list(range(30))
        assert all(int(ells[g].sum()) >= 14 for g in groups)

    @pytest.mark.parametrize("name, kinds", [
        ("criterion8-interleaved", np.tile(MIX_KINDS, (25500, 1))),
        ("calibrate_mix-x16", np.tile(np.repeat(MIX_KINDS, 1600, axis=0), (16, 1))),
    ])
    def test_partitions_pinned(self, name, kinds):
        order, sizes = greedy_partition(kinds[:, 0], kinds[:, 1], L=16)
        digest = hashlib.sha256(order.astype(np.int64).tobytes()
                                + sizes.astype(np.int64).tobytes()).hexdigest()
        assert digest == PARTITION_DIGESTS[name]


class TestMixAndMatch:
    def test_keep_length(self):
        assert mix_and_match_keep_length(32, np.array([8, 16, 28]), s=28) == 16
        assert mix_and_match_keep_length(32, np.array([4, 4]), s=0) == 32
        assert mix_and_match_keep_length(8, np.array([200]), s=280) == 8

    def test_singleton_groups_match_hetero_samples(self):
        # Users rich enough for singleton groups reduce exactly to the
        # heterogeneous-samples protocol with budget 7L.
        d = 8
        ms = [7, 14, 21]
        samples = [RNG.standard_normal((m, d)) + 0.2 for m in ms]
        users = [UserSpec(m, 7 * d) for m in ms]
        dec_mix, tr_mix = mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0))
        dec_het, tr_het = hetero_samples_protocol(
            samples, np.array(ms), d, 7 * d, 1.0, fresh_seed(0))
        assert dec_mix.verdict == dec_het.verdict
        assert dec_mix.repetition_accepts == dec_het.repetition_accepts
        assert tr_mix.serialize() == tr_het.serialize()

    def test_explicit_partition_spans(self):
        # Group 0 = users 0 and 1 (60 bits for a 56-bit stream); group 1 = user 2.
        d = 8
        users = [UserSpec(14, 30), UserSpec(7, 30), UserSpec(21, 56)]
        samples = [RNG.standard_normal((u.m, d)) for u in users]
        decision, transcript = mix_and_match_protocol(
            samples, users, d, 1.0, fresh_seed(0), partition=[[0, 1], [2]])
        assert decision.consistent()
        assert transcript.bits_sent.tolist() == [30, 26, 56]

        # user 1 fills stream positions 30..55 with bits of its own quantized
        # vectors; group min m = 7 forces block size 1 and truncates user 0.
        L = 8
        q1 = np.stack([
            sign_quantize(fwht(samples[1][t])) for t in range(REPETITIONS)])
        positions = np.arange(30, 56)
        assert np.array_equal(transcript.message(1), q1[positions // L, positions % L])
        q0 = np.stack([
            sign_quantize(fwht(samples[0][t])) for t in range(REPETITIONS)])
        positions = np.arange(0, 30)
        assert np.array_equal(transcript.message(0), q0[positions // L, positions % L])

    @pytest.mark.parametrize("bad", [np.zeros((2, 3)), "not samples"], ids=["shape", "string"])
    def test_silent_user_samples_checked(self, bad):
        # users 0 and 1 fill group 0's 56-bit stream, so user 3 sends nothing;
        # its samples are checked all the same
        d = 8
        users = [UserSpec(14, 30), UserSpec(7, 30), UserSpec(21, 56), UserSpec(7, 30)]
        samples = [RNG.standard_normal((u.m, d)) for u in users[:3]] + [bad]
        with pytest.raises(DimensionError):
            mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0),
                                   partition=[[0, 1, 3], [2]])

    def test_extra_rows_are_not_read(self):
        # a user may hold more rows than its m: the transcript is the one of
        # the arrays cut to m rows, whatever the extra rows hold
        d = 16
        users = [UserSpec(m, 15) for m in (7, 14, 9, 21, 8, 12, 7, 30)]
        cut = [RNG.standard_normal((u.m, d)) + 0.1 for u in users]
        extra = [np.vstack([x, RNG.standard_normal((k + 1, d))]) for k, x in enumerate(cut)]
        out = [mix_and_match_protocol(samples, users, d, 0.8, fresh_seed(56, entropy=8))
               for samples in (cut, extra)]
        assert out[0][0] == out[1][0]
        assert out[0][1].serialize() == out[1][1].serialize()

    def test_integer_samples_match_float(self):
        # block means of integer samples are not truncated to integers
        d = 16
        users = [UserSpec(m, 15) for m in (14, 21, 28, 35, 14, 21, 28, 35)]
        ints = [RNG.integers(-3, 4, size=(u.m, d)) for u in users]
        out = [mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(56, entropy=3))
               for samples in (ints, [x.astype(np.float64) for x in ints])]
        assert out[0][0] == out[1][0]
        assert out[0][1].serialize() == out[1][1].serialize()

    def test_underfunded_group_rejected(self):
        d = 8
        users = [UserSpec(7, 55), UserSpec(7, 56)]
        samples = [RNG.standard_normal((7, d)) for _ in users]
        with pytest.raises(InfeasiblePartitionError):
            mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0),
                                   partition=[[0], [1]])

    def test_single_group_rejected(self):
        d = 8
        users = [UserSpec(7, 28), UserSpec(7, 28)]
        samples = [RNG.standard_normal((7, d)) for _ in users]
        with pytest.raises(DegenerateInputError):
            mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0),
                                   partition=[[0, 1]])

    def test_partition_must_cover(self):
        d = 8
        users = [UserSpec(7, 56), UserSpec(7, 56)]
        samples = [RNG.standard_normal((7, d)) for _ in users]
        with pytest.raises(ParameterError):
            mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0),
                                   partition=[[0], [0, 1]])

    def test_group_needs_seven_samples(self):
        d = 8
        users = [UserSpec(6, 56), UserSpec(7, 56)]
        samples = [RNG.standard_normal((u.m, d)) for u in users]
        with pytest.raises(DegenerateInputError):
            mix_and_match_protocol(samples, users, d, 1.0, fresh_seed(0))

    def test_replay_determinism(self):
        # budgets capped at 15 keep L at 8, so the greedy pass forms 2 groups
        d = 16
        ms = [7, 14, 9, 21, 8, 12, 7, 30]
        users = [UserSpec(m, 15) for m in ms]
        samples = [RNG.standard_normal((u.m, d)) + 0.1 for u in users]
        runs = []
        for _ in range(2):
            dec, tr = mix_and_match_protocol(samples, users, d, 0.8, fresh_seed(56, entropy=8))
            runs.append((dec.verdict, tr.serialize(), tr.public_bits_used))
        assert runs[0] == runs[1]


class TestTranscript:
    def test_serialize_golden(self):
        t = Transcript.from_lengths(np.array([3, 0, 9]))
        t.data[0:3] = [1, 0, 1]
        t.data[3:12] = [1, 1, 1, 1, 1, 1, 1, 1, 1]
        assert t.serialize() == (
            b"\x00\x00\x00\x03\xa0"
            b"\x00\x00\x00\x00"
            b"\x00\x00\x00\x09\xff\x80"
        )

    def test_accessors(self):
        t = Transcript.from_lengths(np.array([2, 5]), public_bits_used=12)
        assert t.n_users == 2
        assert t.total_bits == 7
        assert t.bits_sent.tolist() == [2, 5]
        assert t.public_bits_used == 12
        assert t.message(1).shape == (5,)

    def test_layout_naming_a_user_twice_rejected(self):
        # user 1's second segment would be lost from its length and offsets
        with pytest.raises(ParameterError, match="lengths"):
            Layout(runs=[(np.array([0, 1, 1]), np.full(3, 4, dtype=np.int64))], n_users=2)


class TestDecision:
    def test_amplified_consistency(self):
        assert Decision(ACCEPT, (True, True)).consistent()
        assert Decision(REJECT, (True, False)).consistent()
        assert not Decision(ACCEPT, (True, False)).consistent()
        assert not Decision(REJECT, (True, True)).consistent()

    def test_plain_verdict(self):
        assert Decision(ACCEPT).consistent()
        assert not Decision("maybe").consistent()


def two_row_plan(tau: float = 0.1) -> Plan:
    # four users send 4 bits each: two full 8-coordinate rows
    return Plan(d=8, block=None, width=8, tau=tau, n_users=4,
                runs=[(np.arange(4), np.full(4, 4, dtype=np.int64))])


class TestPlan:
    @pytest.mark.parametrize("tau", [-1e-12, -2.0, float("inf"), float("nan")])
    def test_bad_threshold_rejected(self, tau):
        with pytest.raises(ParameterError, match="threshold"):
            two_row_plan(tau)

    def test_totals_and_group_rows(self):
        # block sizes floor(m/7) = 1, 2, 1: two rows of size 1, one of size 2
        plan = hetero_samples_plan(np.array([7, 14, 13]), 8, 56, 1.0, 0)
        assert plan.totals == (3 * 8,) * REPETITIONS
        assert plan.group_rows.tolist() == [2, 1]
        plan = two_row_plan()
        assert plan.totals == (16,) and plan.group_rows.tolist() == [2]

    def test_repetitions_filling_different_rows_rejected(self):
        # group_rows is one array because every repetition fills the same rows
        with pytest.raises(ParameterError, match="rows"):
            Plan(d=8, block=None, width=8, tau=0.1, n_users=6,
                 runs=[(np.arange(4), np.full(4, 4, dtype=np.int64)),
                       (np.arange(6), np.full(6, 4, dtype=np.int64))])


class TestDeferredStreams:
    def test_streams_are_drawn_once_in_repetition_order(self):
        plan = two_row_plan()
        drawn = []

        def stream(r):
            def draw():
                drawn.append(r)
                return np.full(16, r, dtype=np.uint8)
            return draw

        t = Transcript(Layout(plan.runs * 2, 4), [stream(0), stream(1)])
        assert drawn == [] and t.total_bits == 32
        assert t.message(2).tolist() == [0] * 4 + [1] * 4
        t.serialize()
        assert drawn == [0, 1]

    def test_stream_of_wrong_length_rejected_on_read(self):
        plan = two_row_plan()
        t = Transcript(Layout(plan.runs, 4), [lambda: np.zeros(15, dtype=np.uint8)])
        with pytest.raises(ParameterError, match="streams"):
            t.data
