"""Metered public seed and the 4-wise independent sign generator.

The independence checks enumerate the entire seed space and count in exact
integer arithmetic; nothing here depends on floating point.
"""

import itertools

import numpy as np
import pytest

from distmeantest import (
    BudgetExhaustedError,
    DimensionError,
    ParameterError,
    PublicSeed,
    fourwise_rademacher,
    gf_mul,
    gf_poly_eval,
)


def all_sign_vectors(b: int) -> np.ndarray:
    """Signs for every seed value of the 4*log2(b)-bit seed space, one row each."""
    k = b.bit_length() - 1
    length = 4 * k
    rows = []
    for value in range(1 << length):
        seed = PublicSeed.from_int(value, length)
        drawn = fourwise_rademacher(seed, b)
        assert drawn.bits_consumed == length
        assert seed.consumed == length
        rows.append(drawn.signs)
    return np.array(rows, dtype=np.int64)


class TestPublicSeed:
    def test_draw_advances_counter(self):
        seed = PublicSeed.random(28, np.random.default_rng(0))
        out = seed.draw_bits(4)
        assert out.shape == (4,) and seed.consumed == 4

    def test_overdraw_rejected(self):
        seed = PublicSeed.random(3, np.random.default_rng(0))
        with pytest.raises(BudgetExhaustedError):
            seed.draw_bits(4)
        assert seed.consumed == 0  # failed draw consumes nothing

    def test_replay_is_deterministic(self):
        bits = np.random.default_rng(5).integers(0, 2, size=40, dtype=np.uint8)
        a, b = PublicSeed(bits.copy()), PublicSeed(bits.copy())
        for count in (3, 7, 11):
            np.testing.assert_array_equal(a.draw_bits(count), b.draw_bits(count))

    def test_budget_conservation(self):
        seed = PublicSeed.random(100, np.random.default_rng(1))
        draws = [13, 0, 27, 5]
        for c in draws:
            seed.draw_bits(c)
        assert seed.consumed == sum(draws)
        assert seed.remaining == 100 - sum(draws)

    def test_sequential_no_reread(self):
        seed = PublicSeed(np.arange(8) % 2)
        first = seed.draw_bits(4).copy()
        second = seed.draw_bits(4).copy()
        np.testing.assert_array_equal(np.concatenate([first, second]), seed.bits)

    def test_from_int_msb_first(self):
        seed = PublicSeed.from_int(0b1011, 4)
        np.testing.assert_array_equal(seed.bits, [1, 0, 1, 1])

    def test_from_int_range_checked(self):
        with pytest.raises(ParameterError):
            PublicSeed.from_int(16, 4)
        with pytest.raises(ParameterError):
            PublicSeed.from_int(-1, 4)

    def test_zero_length_seed_allowed(self):
        seed = PublicSeed.random(0, np.random.default_rng(0))
        assert seed.size == 0
        assert seed.draw_bits(0).shape == (0,)


class TestFourwiseRademacher:
    def test_single_block_is_free(self):
        seed = PublicSeed.random(0, np.random.default_rng(0))
        drawn = fourwise_rademacher(seed, 1)
        assert drawn.signs.tolist() == [1]
        assert drawn.bits_consumed == 0

    def test_non_power_of_two_rejected(self):
        seed = PublicSeed.random(64, np.random.default_rng(0))
        with pytest.raises(DimensionError):
            fourwise_rademacher(seed, 6)

    def test_budget_exhaustion_propagates(self):
        seed = PublicSeed.random(7, np.random.default_rng(0))
        with pytest.raises(BudgetExhaustedError):
            fourwise_rademacher(seed, 4)  # needs 8 bits

    def test_b4_marginals_exactly_balanced(self):
        """Each sign is +1 for exactly half of the 256 seed values."""
        signs = all_sign_vectors(4)
        plus = (signs == 1).sum(axis=0)
        assert plus.tolist() == [128, 128, 128, 128], f"counts {plus.tolist()}"

    def test_b4_full_fourth_moment_vanishes(self):
        signs = all_sign_vectors(4)
        total = int(np.prod(signs, axis=1).sum())
        assert total == 0

    @pytest.mark.parametrize("b", [2, 4, 8])
    def test_exhaustive_independence_orders_1_2_4(self, b):
        """All moments of orders 1, 2, 4 over distinct indices are exactly 0."""
        signs = all_sign_vectors(b)
        for i in range(b):
            assert int(signs[:, i].sum()) == 0, f"E[d_{i}] != 0"
        for i, j in itertools.combinations(range(b), 2):
            total = int((signs[:, i] * signs[:, j]).sum())
            assert total == 0, f"E[d_{i} d_{j}] = {total}"
        for idx in itertools.combinations(range(b), 4):
            cols = signs[:, list(idx)]
            total = int(np.prod(cols, axis=1).sum())
            assert total == 0, f"E[prod d_{idx}] = {total}"

    def test_signs_are_plus_minus_one(self):
        seed = PublicSeed.random(40, np.random.default_rng(3))
        drawn = fourwise_rademacher(seed, 8)
        assert set(np.unique(drawn.signs)) <= {-1, 1}
        assert drawn.bits_consumed == 12


class TestFieldArithmetic:
    def test_multiplicative_identity(self):
        for k in (1, 3, 8):
            for a in (1, 2, (1 << k) - 1):
                assert gf_mul(a, 1, k) == a

    def test_gf4_known_product(self):
        # GF(4) with x^2 + x + 1: x * x = x + 1
        assert gf_mul(0b10, 0b10, 2) == 0b11

    def test_commutativity_gf8(self):
        for a in range(8):
            for b in range(8):
                assert gf_mul(a, b, 3) == gf_mul(b, a, 3)

    def test_no_zero_divisors_gf16(self):
        products = {(a, b): gf_mul(a, b, 4) for a in range(1, 16) for b in range(1, 16)}
        assert all(v != 0 for v in products.values())

    def test_poly_eval_constant_and_line(self):
        assert gf_poly_eval((5,), 3, 3) == 5
        # p(x) = x over GF(8)
        assert gf_poly_eval((0, 1), 6, 3) == 6

    def test_unsupported_degree_rejected(self):
        with pytest.raises(ParameterError):
            gf_mul(1, 1, 17)


def oracle_signs(raw: np.ndarray, k: int) -> list[int]:
    """Signs from the scalar field code: the lowest bit of the cubic at every point."""
    coeffs = tuple(int("".join(map(str, raw[i * k:(i + 1) * k])), 2) for i in range(4))
    return [-1 if gf_poly_eval(coeffs, x, k) & 1 else 1 for x in range(1 << k)]


class TestSignsMatchFieldOracle:
    """`fourwise_rademacher` against `gf_poly_eval` at every point of GF(2^k)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_seed_small_fields(self, k):
        length = 4 * k
        for value in range(1 << length):
            seed = PublicSeed.from_int(value, length)
            drawn = fourwise_rademacher(seed, 1 << k)
            assert drawn.signs.tolist() == oracle_signs(seed.bits, k), f"seed {value}"

    @pytest.mark.parametrize("k", range(4, 17))
    def test_fixed_seeds_large_fields(self, k):
        length = 4 * k
        rng = np.random.default_rng(1000 + k)
        seeds = [np.zeros(length, np.uint8), np.ones(length, np.uint8)]
        # The oracle costs ~10 us per point, so the widest fields get one random seed.
        seeds += [rng.integers(0, 2, length, dtype=np.uint8) for _ in range(3 if k <= 12 else 1)]
        for bits in seeds:
            drawn = fourwise_rademacher(PublicSeed(bits.copy()), 1 << k)
            assert drawn.bits_consumed == length
            assert drawn.signs.tolist() == oracle_signs(bits, k), f"seed {bits.tolist()}"

    def test_field_cap_checked_before_draw(self):
        seed = PublicSeed(np.zeros(100, np.uint8))
        with pytest.raises(ParameterError, match="17"):
            fourwise_rademacher(seed, 1 << 17)
        assert seed.consumed == 0
