"""Normalized Walsh-Hadamard transform.

The transform matrix is defined recursively: H_1 = [1] and

    H_2d = (1/sqrt(2)) * [[H_d,  H_d],
                          [H_d, -H_d]]

so H_d is symmetric and orthogonal (its own inverse), and H_ab = H_a (x) H_b,
a Kronecker product, for any powers of two a and b (Fino & Algazi, IEEE Trans.
Computers, 1976).  `fwht_inplace` applies H_d through that factorization: it
views the last axis as axes of at most `MAX_FACTOR` entries and multiplies
each by its small dense factor, one matmul per factor: O(d * MAX_FACTOR) per
vector for each of the ceil(log2(d) / log2(MAX_FACTOR)) factors.
`naive_hadamard_apply` builds the dense matrix and is the oracle the fast
version is tested against.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionError

__all__ = ["fwht", "fwht_inplace", "naive_hadamard_apply", "hadamard_matrix"]

# Largest dense Hadamard factor one matmul applies.
MAX_FACTOR = 16


def is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def check_pow2(d: int, what: str = "dimension") -> int:
    """log2(d), for a d that is a positive power of two; else DimensionError."""
    if not is_pow2(d):
        raise DimensionError(f"{what} must be a positive power of two, got {d}")
    return int(d).bit_length() - 1


@lru_cache(maxsize=None)
def _factor(f: int, dtype: np.dtype) -> np.ndarray:
    """H_f in `dtype`, read-only, shared by every transform."""
    h = hadamard_matrix(f).astype(dtype)
    h.flags.writeable = False
    return h


def fwht_inplace(a: np.ndarray) -> np.ndarray:
    """Apply the normalized transform along the last axis of `a`, in place.

    Accepts any float array of shape (..., d); leading axes are treated as a
    batch, and `a` may be a non-contiguous view.  The last axis is viewed as
    (MAX_FACTOR, ..., MAX_FACTOR, r) with r <= MAX_FACTOR; each leading factor
    is one batched matmul into a new array, and the last, by H_r, writes into
    `a`.  Returns `a` for convenience.  Raises DimensionError, before writing
    anything, for a 0-d or non-float array or a d that is not a power of two.
    """
    if a.ndim == 0 or a.dtype.kind != "f":
        raise DimensionError(f"expected a float array (..., d), got {a.dtype} {a.shape}")
    d = a.shape[-1]
    check_pow2(d)
    x, inner = a, d
    while inner > MAX_FACTOR:
        inner //= MAX_FACTOR
        x = _factor(MAX_FACTOR, a.dtype) @ x.reshape(-1, MAX_FACTOR, inner)
    # splitting the last axis is always a view, so `out` writes into `a`
    shape = a.shape[:-1] + (d // inner, inner)
    np.matmul(x.reshape(shape), _factor(inner, a.dtype), out=a.reshape(shape))
    return a


def fwht(v: np.ndarray) -> np.ndarray:
    """Out-of-place wrapper around `fwht_inplace`; input is not modified.

    Float input keeps its dtype; other real input is converted to float64.
    """
    v = np.asarray(v)
    out = np.array(v, dtype=v.dtype if v.dtype.kind == "f" else np.result_type(v, np.float64))
    return fwht_inplace(out)


def hadamard_matrix(d: int) -> np.ndarray:
    """Dense normalized Hadamard matrix: the +-1 recursion, scaled once."""
    check_pow2(d)
    m = np.array([[1.0]])
    while m.shape[0] < d:
        m = np.block([[m, m], [m, -m]])
    return m / np.sqrt(d)


def naive_hadamard_apply(v: np.ndarray) -> np.ndarray:
    """O(d^2) reference: materialize the matrix and multiply.

    Intended for d <= 1024; raises DimensionError beyond that so nobody leans
    on it for real workloads.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    k = check_pow2(v.shape[0])
    if k > 10:
        raise DimensionError(f"naive apply capped at d=1024, got d={v.shape[0]}")
    return hadamard_matrix(v.shape[0]) @ v
