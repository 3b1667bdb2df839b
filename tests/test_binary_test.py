"""Referee-side tests: the collision statistic and its decision rules."""

import itertools

import numpy as np
import pytest

from distmeantest import (
    ACCEPT,
    REJECT,
    DegenerateInputError,
    ParameterError,
    bpmt_decide,
    bpmt_decide_threshold,
    bpmt_moments_oracle,
    collision_statistic,
    collision_statistic_counts,
)
from distmeantest.binary_test import check_referee_size

RNG = np.random.default_rng(20240818)


def double_sum_statistic(samples: np.ndarray) -> float:
    """O(n^2) reference: average over ordered pairs of centered inner products."""
    x = np.asarray(samples, dtype=float) - 0.5
    n = x.shape[0]
    total = 0.0
    for k in range(n):
        for l in range(n):
            if k != l:
                total += float(x[k] @ x[l])
    return total / (n * (n - 1))


def exact_moments(p_rows: np.ndarray) -> tuple[float, float]:
    """Brute-force E[T], Var(T) over every bit outcome of an (n, d) product law."""
    p_rows = np.asarray(p_rows, dtype=float)
    n, d = p_rows.shape
    mean = 0.0
    second = 0.0
    for bits in itertools.product((0, 1), repeat=n * d):
        x = np.array(bits, dtype=np.int64).reshape(n, d)
        weight = float(np.prod(np.where(x == 1, p_rows, 1.0 - p_rows)))
        t = collision_statistic(x)
        mean += weight * t
        second += weight * t * t
    return mean, second - mean * mean


class TestCollisionStatistic:
    def test_two_agreeing_bits(self):
        assert collision_statistic(np.array([[1], [1]])) == 0.25

    def test_two_disagreeing_bits(self):
        assert collision_statistic(np.array([[1], [0]])) == -0.25

    def test_matches_double_sum_small(self):
        x = RNG.integers(0, 2, size=(6, 4))
        assert collision_statistic(x) == pytest.approx(double_sum_statistic(x), abs=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 7), (8, 5), (20, 16)])
    def test_matches_double_sum(self, n, d):
        for _ in range(5):
            x = RNG.integers(0, 2, size=(n, d))
            assert collision_statistic(x) == pytest.approx(double_sum_statistic(x), abs=1e-12)

    def test_permutation_invariance(self):
        x = RNG.integers(0, 2, size=(9, 6))
        t = collision_statistic(x)
        rows = RNG.permutation(9)
        cols = RNG.permutation(6)
        assert collision_statistic(x[rows]) == t
        assert collision_statistic(x[:, cols]) == t

    def test_boolean_dtype_accepted(self):
        x = RNG.integers(0, 2, size=(5, 3))
        assert collision_statistic(x.astype(bool)) == collision_statistic(x)

    def test_single_sample_rejected(self):
        with pytest.raises(DegenerateInputError):
            collision_statistic(np.array([[0, 1, 0]]))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            collision_statistic(np.array([0, 1, 1]))

    def test_zero_coordinates_rejected(self):
        with pytest.raises(DegenerateInputError):
            collision_statistic(np.zeros((4, 0), dtype=np.int64))

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ParameterError):
            collision_statistic(np.array([[0, 2], [1, 0]]))
        with pytest.raises(ParameterError):
            collision_statistic(np.array([[0.0, 0.5], [1.0, 0.0]]))
        # a -1 once read as -1 in the column sums: the first matrix gave
        # T = 1/6 and an accept, the second T = -1/6
        for rows in ([[-1, 0], [0, 1], [1, 0]], [[-1, 1], [1, 0], [1, 0]]):
            for dtype in (np.int8, np.int64):
                with pytest.raises(ParameterError, match="only 0/1 entries"):
                    collision_statistic(np.array(rows, dtype=dtype))
                with pytest.raises(ParameterError, match="only 0/1 entries"):
                    bpmt_decide(np.array(rows, dtype=dtype), epsilon=0.5)


class TestCollisionStatisticCounts:
    def test_counts_give_the_statistic_of_their_samples(self):
        for _ in range(50):
            n, d = int(RNG.integers(2, 40)), int(RNG.integers(1, 20))
            x = RNG.integers(0, 2, size=(n, d)).astype(np.uint8)
            assert collision_statistic_counts(x.sum(axis=0), n) == collision_statistic(x)

    @pytest.mark.parametrize("n", [2, 3, 97, 4096, 1 << 20])
    def test_batch_equals_rows(self, n):
        # one row of counts at a time, in Python integers, is the reference
        ones = RNG.integers(0, n + 1, size=(7, 3, 64))
        batch = collision_statistic_counts(ones, n)
        for r in range(7):
            for g in range(3):
                row = [int(c) for c in ones[r, g]]
                exact = sum((2 * c - n) ** 2 for c in row) - len(row) * n
                assert batch[r][g] == exact / (4.0 * n * (n - 1))
                assert batch[r][g] == collision_statistic_counts(ones[r, g], n)

    def test_int64_limit(self):
        # width * n^2 is 2.56e18 at n = 1e8 and width 256, within int64; at
        # n = 2e8 it is 1.02e19, where the int64 sum would wrap and give
        # -51.29 for this all-ones sample instead of 64
        assert collision_statistic_counts(np.full(256, 10**8), 10**8) == 64.0
        check_referee_size(10**8, 256)
        for call in (lambda: check_referee_size(2 * 10**8, 256),
                     lambda: collision_statistic_counts(np.full(256, 2 * 10**8), 2 * 10**8)):
            with pytest.raises(ParameterError, match="200000000 referee rows of width 256"):
                call()


class TestDecisionRules:
    def test_reject_above_threshold(self):
        # T = 0.75 for two identical all-ones samples over 3 coordinates.
        x = np.ones((2, 3), dtype=np.int64)
        assert collision_statistic(x) == 0.75
        assert bpmt_decide(x, epsilon=1.0) == REJECT

    def test_tie_accepts(self):
        # T = 0.5 exactly equals epsilon^2/2 at epsilon=1; strict rule keeps it.
        x = np.ones((2, 2), dtype=np.int64)
        assert collision_statistic(x) == 0.5
        assert bpmt_decide(x, epsilon=1.0) == ACCEPT

    @pytest.mark.parametrize("epsilon", [0.0, -0.3, 1.5, float("nan")])
    def test_epsilon_out_of_range(self, epsilon):
        with pytest.raises(ParameterError):
            bpmt_decide(np.ones((2, 2), dtype=np.int64), epsilon=epsilon)

    def test_zero_threshold_rejects_positive_t(self):
        assert bpmt_decide_threshold(np.array([[1], [1]]), tau=0.0) == REJECT

    def test_negative_t_accepts(self):
        assert bpmt_decide_threshold(np.array([[1], [0]]), tau=0.1) == ACCEPT

    def test_threshold_form_matches_epsilon_form(self):
        for _ in range(10):
            x = RNG.integers(0, 2, size=(5, 8))
            eps = float(RNG.uniform(0.05, 1.0))
            assert bpmt_decide(x, eps) == bpmt_decide_threshold(x, 0.5 * eps * eps)

    @pytest.mark.parametrize("tau", [-1e-12, -2.0, float("inf"), float("nan")])
    def test_bad_threshold_rejected(self, tau):
        with pytest.raises(ParameterError):
            bpmt_decide_threshold(np.ones((2, 2), dtype=np.int64), tau=tau)


class TestMomentsOracle:
    def test_uniform_mean_is_zero(self):
        mom = bpmt_moments_oracle(np.full(5, 0.5), n=7)
        assert mom.mean_t == 0.0
        assert mom.var_bound == pytest.approx(5.0 / (8 * 7 * 6))

    def test_iid_mean_is_squared_distance(self):
        p = RNG.uniform(0.05, 0.95, size=12)
        mom = bpmt_moments_oracle(p, n=9)
        assert mom.mean_t == pytest.approx(float(np.sum((p - 0.5) ** 2)), rel=1e-12)

    def test_exhaustive_iid(self):
        p = np.array([0.7])
        n = 4
        mean, var = exact_moments(np.tile(p, (n, 1)))
        mom = bpmt_moments_oracle(p, n=n)
        assert mom.mean_t == pytest.approx(mean, abs=1e-12)
        assert var <= mom.var_bound + 1e-12, f"Var={var} > bound={mom.var_bound}"

    def test_exhaustive_heterogeneous(self):
        p_rows = np.array([[0.6], [0.7], [0.8]])
        mean, var = exact_moments(p_rows)
        mom = bpmt_moments_oracle(p_rows, n=3)
        assert mom.mean_t == pytest.approx(mean, abs=1e-12)
        assert var <= mom.var_bound + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive_same_sign_profiles(self, n):
        # One coordinate, per-sample success probabilities all on one side of 1/2.
        for _ in range(4):
            side = 1.0 if RNG.random() < 0.5 else -1.0
            p_rows = 0.5 + side * RNG.uniform(0.02, 0.45, size=(n, 1))
            mean, var = exact_moments(p_rows)
            mom = bpmt_moments_oracle(p_rows, n=n)
            assert mom.mean_t == pytest.approx(mean, abs=1e-12), \
                f"n={n} p={p_rows.ravel()}: closed form {mom.mean_t} vs exact {mean}"
            assert var <= mom.var_bound + 1e-12, \
                f"n={n} p={p_rows.ravel()}: Var={var} > bound={mom.var_bound}"

    def test_two_coordinate_exhaustive(self):
        p_rows = np.array([[0.55, 0.3], [0.9, 0.45]])
        mean, var = exact_moments(p_rows)
        mom = bpmt_moments_oracle(p_rows, n=2)
        assert mom.mean_t == pytest.approx(mean, abs=1e-12)
        assert var <= mom.var_bound + 1e-12

    def test_mixed_sign_column_rejected(self):
        bad = np.array([[0.3, 0.6], [0.7, 0.6]])
        with pytest.raises(ParameterError):
            bpmt_moments_oracle(bad, n=2)

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.1, 1.1, float("nan")])
    def test_probabilities_must_be_interior(self, value):
        p = np.array([0.4, value, 0.6])
        with pytest.raises(ParameterError):
            bpmt_moments_oracle(p, n=3)

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            bpmt_moments_oracle(np.full((3, 2), 0.6), n=4)

    def test_small_n_rejected(self):
        with pytest.raises(DegenerateInputError):
            bpmt_moments_oracle(np.full(3, 0.6), n=1)


class TestNullBehavior:
    def test_uniform_null_rarely_rejects(self):
        # tau = 0.28 is ~40 standard deviations of T at this size; expect no rejections.
        rng = np.random.default_rng(515253)
        rejects = 0
        trials = 500
        for _ in range(trials):
            x = rng.integers(0, 2, size=(200, 16))
            if bpmt_decide(x, epsilon=0.75) == REJECT:
                rejects += 1
        assert rejects / trials <= 0.05, f"null reject rate {rejects / trials}"
