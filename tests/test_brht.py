"""Blockwise randomized transform: sampling cost, application, moments.

Moment identities are checked by enumerating the whole seed space, so they
are statements about the exact distribution, not Monte Carlo estimates.
"""

import numpy as np
import pytest

from distmeantest import (
    BrhtSpec,
    DimensionError,
    PublicSeed,
    brht_apply,
    compression_probe,
    fourwise_rademacher,
    hadamard_matrix,
    is_pow2,
    next_pow2,
    pow2_floor,
    sample_brht,
)
from distmeantest.errors import ParameterError

RNG = np.random.default_rng(31337)


def fresh_seed(s=200, seed=0):
    return PublicSeed.random(s, np.random.default_rng(seed))


def enumerate_specs(d, L):
    """One BrhtSpec per value of the full 4*log2(d/L)-bit seed space."""
    b = d // L
    length = 4 * (b.bit_length() - 1)
    for value in range(1 << length):
        yield sample_brht(PublicSeed.from_int(value, length), d, L)


class TestSampling:
    def test_single_block_costs_nothing(self):
        seed = fresh_seed()
        spec = sample_brht(seed, 8, 8)
        assert spec.b == 1 and spec.bits_consumed == 0 and seed.consumed == 0
        # R = +/- H_8; with one block the sign convention pins it to +H_8
        x = RNG.standard_normal(8)
        h8 = hadamard_matrix(8)
        np.testing.assert_allclose(brht_apply(spec, x), h8 @ x, atol=1e-12)

    def test_four_blocks_cost_eight_bits(self):
        seed = fresh_seed()
        spec = sample_brht(seed, 8, 2)
        assert spec.b == 4
        assert spec.bits_consumed == 8 and seed.consumed == 8

    def test_nondividing_block_rejected(self):
        with pytest.raises(DimensionError):
            sample_brht(fresh_seed(), 8, 3)

    def test_block_longer_than_dimension_rejected(self):
        with pytest.raises(DimensionError):
            sample_brht(fresh_seed(), 4, 8)


def seed_of_blocks(values, k):
    """A seed whose repetition r holds values[r] as its 4k-bit block, MSB first."""
    n = 4 * k
    shifts = np.arange(n - 1, -1, -1)
    return PublicSeed(((np.asarray(values)[:, None] >> shifts) & 1).astype(np.uint8).ravel())


class TestStackedSampling:
    """`sample_brht(seed, d, L, count)` is `count` single draws in one spec."""

    @staticmethod
    def assert_stack_is_single_draws(bits, d, L, count=7):
        stacked_seed, single_seed = PublicSeed(bits.copy()), PublicSeed(bits.copy())
        stacked = sample_brht(stacked_seed, d, L, count)
        singles = [sample_brht(single_seed, d, L) for _ in range(count)]
        assert (stacked.d, stacked.L, stacked.b) == (d, L, d // L)
        assert stacked.signs.shape == (count, d // L) and stacked.signs.dtype == np.int8
        for row, single in zip(stacked.signs, singles):
            assert np.array_equal(row, single.signs)
        assert stacked.bits_consumed == sum(single.bits_consumed for single in singles)
        assert stacked_seed.consumed == single_seed.consumed == stacked.bits_consumed

    @pytest.mark.parametrize("d,L", [(4, 2), (16, 4), (64, 8)])   # b = 2, 4, 8
    def test_every_seed_value_in_every_repetition(self, d, L):
        # block r of seed v holds v * (2r + 1) mod 2^(4k): an odd multiplier is a
        # bijection, so each repetition reads every value of the seed space
        k = (d // L).bit_length() - 1
        space = 1 << (4 * k)
        for value in range(space):
            blocks = [value * (2 * r + 1) % space for r in range(7)]
            self.assert_stack_is_single_draws(seed_of_blocks(blocks, k).bits, d, L)

    def test_random_seeds_at_4096_blocks(self):
        rng = np.random.default_rng(4096)
        for _ in range(3):
            self.assert_stack_is_single_draws(rng.integers(0, 2, 7 * 48, dtype=np.uint8), 4096, 1)

    def test_one_block_draws_no_bit(self):
        seed = fresh_seed()
        spec = sample_brht(seed, 8, 8, 7)
        assert spec.signs.tolist() == [[1]] * 7
        assert spec.bits_consumed == 0 and seed.consumed == 0

    @pytest.mark.parametrize("d,L,error", [(8, 3, DimensionError), (8, 16, DimensionError),
                                           (1 << 17, 1, ParameterError)])
    def test_bad_transform_rejected_before_any_draw(self, d, L, error):
        seed = fresh_seed(s=1000)
        with pytest.raises(error):
            sample_brht(seed, d, L, 7)
        assert seed.consumed == 0


class TestApply:
    def test_zero_maps_to_zero(self):
        spec = sample_brht(fresh_seed(), 16, 4)
        np.testing.assert_array_equal(brht_apply(spec, np.zeros(16)), np.zeros(16))

    @pytest.mark.parametrize("d,L", [(8, 8), (16, 4), (64, 8), (256, 2)])
    def test_isometry(self, d, L):
        spec = sample_brht(fresh_seed(seed=d + L), d, L)
        x = RNG.standard_normal(d)
        ratio = np.linalg.norm(brht_apply(spec, x)) / np.linalg.norm(x)
        assert abs(ratio - 1.0) <= 1e-9

    def test_dense_oracle_d4(self):
        """d=4, L=2, signs (+1,-1): R = H_4 diag(1,1,-1,-1) entry for entry."""
        spec = BrhtSpec(d=4, L=2, b=2, signs=np.array([1, -1], dtype=np.int8))
        dense = hadamard_matrix(4) @ np.diag([1.0, 1.0, -1.0, -1.0])
        for _ in range(10):
            x = RNG.standard_normal(4)
            np.testing.assert_allclose(brht_apply(spec, x), dense @ x, atol=1e-12)

    def test_prefix_matches_full_transform(self):
        # the folded fast path for power-of-two keep must agree with slicing
        spec = sample_brht(fresh_seed(seed=4), 64, 8)
        x = RNG.standard_normal(64)
        full = brht_apply(spec, x)
        for keep in (1, 2, 8, 16, 64):
            np.testing.assert_allclose(brht_apply(spec, x, keep=keep), full[:keep],
                                       atol=1e-9)

    def test_non_pow2_keep_matches_slice(self):
        spec = sample_brht(fresh_seed(seed=5), 32, 4)
        x = RNG.standard_normal(32)
        np.testing.assert_allclose(brht_apply(spec, x, keep=5),
                                   brht_apply(spec, x)[:5], atol=1e-12)

    def test_batch_shape(self):
        spec = sample_brht(fresh_seed(seed=6), 16, 4)
        batch = RNG.standard_normal((3, 5, 16))
        out = brht_apply(spec, batch, keep=4)
        assert out.shape == (3, 5, 4)
        np.testing.assert_allclose(out[1, 2], brht_apply(spec, batch[1, 2], keep=4),
                                   atol=1e-12)

    @pytest.mark.parametrize("d,L,keep", [(8, 8, 8), (32, 4, 8), (32, 4, 32), (64, 2, 5),
                                          (256, 8, 1), (4096, 1, 64), (4096, 1, 4096)])
    def test_stacked_transforms_equal_single_applications(self, d, L, keep):
        # row r of a (7, d) batch under seven stacked sign vectors is, bit for
        # bit, transform r applied alone, with folding (keep < d) and without
        seed = fresh_seed(s=7 * 4 * 12, seed=d + keep)
        specs = [sample_brht(seed, d, L) for _ in range(7)]
        x = RNG.standard_normal((7, d))
        stacked = BrhtSpec(d=d, L=L, b=d // L, signs=np.stack([spec.signs for spec in specs]))
        out = brht_apply(stacked, x, keep=keep)
        assert out.shape == (7, keep)
        for r, spec in enumerate(specs):
            assert np.array_equal(out[r], brht_apply(spec, x[r], keep=keep))
        mean = np.broadcast_to(x[0], (7, d))    # one vector under seven transforms
        assert np.array_equal(brht_apply(stacked, mean, keep=keep),
                              np.array([brht_apply(spec, x[0], keep=keep) for spec in specs]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("d,L,keep", [(32, 4, 8), (32, 4, 32), (64, 2, 5), (4096, 1, 64)])
    def test_stacked_signs_rotate_one_vector(self, dtype, d, L, keep):
        # a (d,) vector under (7, b) signs is, bit for bit, the (7, d) broadcast
        # of it under the same signs, in the same dtype
        spec = sample_brht(fresh_seed(s=7 * 48, seed=d + keep), d, L, 7)
        x = (RNG.standard_normal(d) * 100).astype(dtype)
        out = brht_apply(spec, x, keep=keep)
        assert out.shape == (7, keep)
        assert out.dtype == (np.float32 if dtype == np.float32 else np.float64)
        assert np.array_equal(out, brht_apply(spec, np.broadcast_to(x, (7, d)), keep=keep))

    def test_length_mismatch_rejected(self):
        spec = sample_brht(fresh_seed(), 16, 4)
        with pytest.raises(DimensionError):
            brht_apply(spec, np.zeros(8))
        with pytest.raises(DimensionError):
            brht_apply(spec, np.zeros(16), keep=0)


class TestCompressionProbe:
    def test_full_prefix_recovers_norm(self):
        spec = sample_brht(fresh_seed(seed=2), 32, 4)
        mu = RNG.standard_normal(32)
        result = compression_probe(spec, mu, t=spec.b)
        assert result.z == pytest.approx(float(mu @ mu), rel=1e-9)

    def test_zero_mean(self):
        spec = sample_brht(fresh_seed(seed=2), 32, 4)
        result = compression_probe(spec, np.zeros(32), t=1)
        assert result.z == 0.0 and not result.exceeds_threshold

    def test_t_out_of_range(self):
        spec = sample_brht(fresh_seed(seed=2), 32, 4)
        with pytest.raises(DimensionError):
            compression_probe(spec, np.zeros(32), t=9)

    @pytest.mark.parametrize("L, t", [(8, 1), (8, 3), (16, 4), (64, 1)])
    def test_threshold_reads_the_retention_scale(self, L, t):
        # threshold = t L / (100 d) * ||mu||^2, written out
        mu = np.random.default_rng(L + t).standard_normal(64)
        spec = sample_brht(PublicSeed(np.zeros(64, np.uint8)), 64, L)
        assert compression_probe(spec, mu, t).threshold == pytest.approx(
            t * L / (100 * 64) * float(mu @ mu))

    def test_exhaustive_first_moment_d8(self):
        """Average of Z over all 256 seeds equals ||mu||^2 / b for d=8, L=2."""
        mu = RNG.standard_normal(8)
        rho2 = float(mu @ mu)
        total = 0.0
        count = 0
        for spec in enumerate_specs(8, 2):
            total += compression_probe(spec, mu, t=1).z
            count += 1
        assert count == 256
        mean_z = total / count
        assert mean_z == pytest.approx(rho2 / 4, rel=1e-9), \
            f"E[Z]={mean_z}, expected {rho2 / 4}"

    @pytest.mark.parametrize("d,L", [(4, 2), (8, 2), (16, 2)])
    def test_exhaustive_moments_small(self, d, L):
        """E[Z] = t rho^2/b exactly; E[Z^2] <= 3 t^2 rho^4 / b^2 (whole seed space)."""
        b = d // L
        mu = RNG.standard_normal(d)
        rho2 = float(mu @ mu)
        specs = list(enumerate_specs(d, L))
        for t in sorted({1, 2, b}):
            zs = np.array([compression_probe(spec, mu, t=t).z for spec in specs])
            assert np.mean(zs) == pytest.approx(t * rho2 / b, rel=1e-9)
            bound = 3.0 * t * t * rho2 * rho2 / (b * b)
            assert np.mean(zs ** 2) <= bound * (1 + 1e-9), \
                f"E[Z^2]={np.mean(zs ** 2)} > {bound} at d={d} L={L} t={t}"

    def test_anti_concentration_sampled(self):
        """P(Z > threshold) >= 0.30 for a random unit mean (guarantee is 8/25)."""
        rng = np.random.default_rng(77)
        mu = rng.standard_normal(64)
        mu /= np.linalg.norm(mu)
        hits = 0
        trials = 2000
        for _ in range(trials):
            spec = sample_brht(PublicSeed.random(12, rng), 64, 8)
            if compression_probe(spec, mu, t=1).exceeds_threshold:
                hits += 1
        assert hits / trials >= 0.30, f"hit rate {hits / trials}"


class TestPow2Helpers:
    @pytest.mark.parametrize("x,expect", [(1, 1), (2, 2), (3, 2), (7, 4), (8, 8), (100, 64)])
    def test_pow2_floor(self, x, expect):
        assert pow2_floor(x) == expect

    @pytest.mark.parametrize("x,expect", [(1, 1), (2, 2), (3, 4), (9, 16), (64, 64)])
    def test_next_pow2(self, x, expect):
        assert next_pow2(x) == expect

    def test_is_pow2(self):
        assert [x for x in range(1, 17) if is_pow2(x)] == [1, 2, 4, 8, 16]

    def test_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            pow2_floor(0)
        with pytest.raises(ParameterError):
            next_pow2(0)
