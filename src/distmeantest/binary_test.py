"""Centralized mean test for binary product distributions.

Given n samples of a d-coordinate product of Bernoulli(p_i) variables, write
S_i for the centered column sum sum_k (x_ki - 1/2).  The pairwise collision
statistic

    T = (1 / (n*(n-1))) * sum_i (S_i^2 - n/4)

has mean ||p - u||^2 under a product distribution with mean vector p (u is
the all-1/2 vector), so the tester rejects "mean is uniform" exactly when
T > epsilon^2 / 2 (strictly), the threshold `bpmt_threshold` states.  The
numerator of T is computed in exact integer arithmetic: S_i^2 - n/4 =
((2*ones_i - n)^2 - n) / 4 with ones_i the integer column sum, so there is a
single float division at the end.  That numerator is an int64 sum of d
squares of at most n^2 each, so the referee takes at most d * n^2 <= 2^63 - 1
(`check_referee_size`).

`bpmt_moments_oracle` returns the matching closed-form mean together with the
variance bound

    Var(T) <= [d*n*(n-1)/8 + n*(n-1)*(n-2)*sum_i ptilde_i^2] / (n*(n-1))^2

and also accepts one mean vector per sample (shape (n, d)) for populations
whose samples are independent but not identically distributed, as long as the
per-coordinate deviations ptilde share a sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError

__all__ = [
    "ACCEPT",
    "REJECT",
    "BpmtMoments",
    "collision_statistic",
    "collision_statistic_counts",
    "bpmt_decide",
    "bpmt_decide_threshold",
    "bpmt_moments_oracle",
]

ACCEPT = "accept"
REJECT = "reject"
# T averages over ordered pairs of samples, so the referee needs two of them
MIN_SAMPLES = 2
# the referee's sum of squares, and every integer a config holds, is an int64
INT64 = np.iinfo(np.int64)


def _check_sample_count(n: int) -> None:
    if n < MIN_SAMPLES:
        raise DegenerateInputError(f"need at least {MIN_SAMPLES} samples, got {n}")


def _check_bits(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise DegenerateInputError(f"expected an (n, d) bit matrix, got shape {samples.shape}")
    if samples.shape[1] < 1:
        raise DegenerateInputError("need at least 1 coordinate")
    if samples.dtype.kind not in "iub" or not (samples.astype(bool) == samples).all():
        raise ParameterError("samples must contain only 0/1 entries")
    return samples


def collision_statistic(samples: np.ndarray) -> float:
    """Exact T for an (n, d) 0/1 matrix; integer numerator, one division."""
    samples = _check_bits(samples)
    return collision_statistic_counts(samples.sum(axis=0, dtype=np.int64), samples.shape[0])


def check_referee_size(rows: int, width: int) -> None:
    """The referee's size limit: width * rows^2, the most its int64 sum of
    squares (2 * ones - rows)^2 can reach, must not pass 2^63 - 1."""
    if int(width) * int(rows) ** 2 > INT64.max:
        raise ParameterError(
            f"{rows} referee rows of width {width} overflow its int64 sum: "
            f"width * rows^2 must be at most {INT64.max}")


def collision_statistic_counts(ones: np.ndarray, n: int) -> float | list:
    """Exact T from the integer column sums `ones` of n >= 2 binary samples.

    The column sums are sufficient: T depends on the samples only through
    them.  `ones` has shape (..., width), one row of column sums per sample
    set (each of n samples); the numerator of each row's T is an exact int64
    sum and the result one float division per row.  Returns T as a float for
    one row (shape (width,)), and as a list of floats, nested like the
    leading axes, for a batch of rows.  n < 2, a width and n past
    `check_referee_size` and a column sum outside 0..n are rejected.
    """
    _check_sample_count(n)
    check_referee_size(n, np.shape(ones)[-1])
    centered_doubled = 2 * np.asarray(ones, dtype=np.int64) - n    # 2 * S_i, exact int
    if np.abs(centered_doubled).max(initial=0) > n:
        raise ParameterError(f"column sums of {n} samples must lie in 0..{n}")
    numerator = (np.square(centered_doubled).sum(axis=-1, dtype=np.int64)
                 - centered_doubled.shape[-1] * n)
    return (numerator / (4.0 * n * (n - 1))).tolist()


def check_epsilon(epsilon: float) -> None:
    """The distance range of every test: epsilon in (0, 1]."""
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")


def check_threshold(tau: float) -> None:
    """A rejection threshold must be finite and nonnegative."""
    if not (np.isfinite(tau) and tau >= 0.0):
        raise ParameterError(f"threshold must be finite and >= 0, got {tau}")


def bpmt_threshold(sq_distance: float) -> float:
    """tau = delta^2 / 2, the threshold of the test at squared distance
    delta^2: reject iff T > tau.  Halving is exact, so tau is exactly half
    the squared distance the caller forms."""
    return sq_distance / 2


def referee_accepts(t: float, tau: float) -> bool:
    """The referee's rule at threshold tau: accept iff T <= tau (reject iff
    T > tau, strictly), so ties accept."""
    return t <= tau


def bpmt_decide(samples: np.ndarray, epsilon: float) -> str:
    """Reject iff T > epsilon^2 / 2 (strict); ties accept."""
    check_epsilon(epsilon)
    return bpmt_decide_threshold(samples, bpmt_threshold(epsilon * epsilon))


def bpmt_decide_threshold(samples: np.ndarray, tau: float) -> str:
    """Reject iff T > tau (strict); tau must be nonnegative."""
    check_threshold(tau)
    return ACCEPT if referee_accepts(collision_statistic(samples), tau) else REJECT


@dataclass
class BpmtMoments:
    mean_t: float
    var_bound: float


def bpmt_moments_oracle(p: np.ndarray, n: int) -> BpmtMoments:
    """Closed-form E[T] and a Var(T) upper bound for product samples.

    p with shape (d,) describes n i.i.d. samples; shape (n, d) gives each
    sample its own mean vector.  Coordinates must not mix strictly positive
    and strictly negative deviations from 1/2.
    """
    p = np.asarray(p, dtype=np.float64)
    _check_sample_count(n)
    if p.ndim not in (1, 2):
        raise ParameterError(f"p must be a vector or an (n, d) matrix, got shape {p.shape}")
    if p.ndim == 2 and p.shape[0] != n:
        raise ParameterError(f"p has {p.shape[0]} rows but n={n}")
    if not np.all((p > 0.0) & (p < 1.0)):  # NaN lies in neither half-line
        raise ParameterError("all success probabilities must lie strictly in (0, 1)")

    ptilde = p - 0.5
    if p.ndim == 1:
        pair_sum_per_coord = n * (n - 1) * ptilde * ptilde
    else:
        if np.any((ptilde.min(axis=0) < 0.0) & (ptilde.max(axis=0) > 0.0)):
            raise ParameterError("per-coordinate deviations must share a sign across samples")
        col = ptilde.sum(axis=0)
        pair_sum_per_coord = col * col - (ptilde * ptilde).sum(axis=0)

    norm = float(n) * (n - 1)
    mean_t = float(pair_sum_per_coord.sum()) / norm
    d = p.shape[-1]
    raw_var_bound = d * norm / 8.0 + (n - 2) * float(pair_sum_per_coord.sum())
    return BpmtMoments(mean_t=mean_t, var_bound=raw_var_bound / (norm * norm))
