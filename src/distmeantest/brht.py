"""Blockwise randomized Hadamard transform (BRHT).

R = H_d * D where D is diagonal with a constant sign per length-L block and
the b = d/L block signs are drawn 4-wise independently from a metered public
seed.  A sampled transform costs exactly 4*log2(b) shared bits.  Applying R
and keeping a short prefix is the compression step every protocol builds on:
on average the prefix of length t*L retains a t/b fraction of the squared
mean, and `compression_probe` reports the prefix energy next to the
pessimistic retention threshold the protocol thresholds are derived from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .hadamard import check_pow2, fwht_inplace, is_pow2
from .randomness import PublicSeed, fourwise_rademacher

__all__ = [
    "BrhtSpec",
    "CompressionProbeResult",
    "sample_brht",
    "brht_apply",
    "compression_probe",
    "pow2_floor",
    "next_pow2",
    "is_pow2",
]

# Pessimistic fraction of ||mu||^2 the kept prefix is assumed to retain; the
# protocol thresholds all inherit this factor.
RETENTION_FACTOR = 1.0 / 100.0


def pow2_floor(x: int) -> int:
    """Largest power of two <= x (x >= 1)."""
    if x < 1:
        raise ParameterError(f"pow2_floor needs a positive integer, got {x}")
    return 1 << (int(x).bit_length() - 1)


def next_pow2(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    if x < 1:
        raise ParameterError(f"next_pow2 needs a positive integer, got {x}")
    return 1 << (int(x - 1).bit_length() if x > 1 else 0)


@dataclass
class BrhtSpec:
    """A sampled transform: dimension d, block length L, b = d/L block signs.

    `signs` has shape (b,) for one transform, or (..., b) for a stack of
    (d, L) transforms, one per row of a batch (see `brht_apply`).
    """

    d: int
    L: int
    b: int
    signs: np.ndarray  # int8, shape (..., b)
    bits_consumed: int = 0

    def expanded_signs(self) -> np.ndarray:
        """Per-coordinate signs, i.e. the diagonal of D (length d)."""
        return np.repeat(self.signs, self.L, axis=-1)


def sample_brht(seed: PublicSeed, d: int, L: int) -> BrhtSpec:
    """Draw the block signs for a (d, L) transform from the public seed."""
    check_pow2(d, "d")
    check_pow2(L, "L")
    if L > d or d % L != 0:
        raise DimensionError(f"block length {L} must divide dimension {d}")
    b = d // L
    drawn = fourwise_rademacher(seed, b)
    return BrhtSpec(d=d, L=L, b=b, signs=drawn.signs, bits_consumed=drawn.bits_consumed)


def brht_apply(spec: BrhtSpec, x: np.ndarray, keep: int | None = None) -> np.ndarray:
    """Compute (R x)[:keep] for one vector or a batch with shape (..., d).

    The leading axes of `spec.signs` (shape (..., b)) broadcast against those
    of x: signs of shape (b,) rotate every vector of x by the one transform,
    and a stack of shape (k, b) rotates row r of a (k, d) batch by transform
    r, in one pass, with the same values as k single applications.  keep
    defaults to d.  When keep is a power of two dividing d the first
    `keep` output coordinates are computed directly by folding: the leading
    keep-row band of H_d is (1/sqrt(d/keep)) * [H_keep ... H_keep], so summing
    the sign-flipped chunks and transforming the length-keep fold gives the
    same values as slicing the full transform, in O(d + keep log keep) per
    vector instead of O(d log d).
    """
    x = np.asarray(x)
    if x.shape[-1] != spec.d:
        raise DimensionError(f"input has dimension {x.shape[-1]}, spec wants {spec.d}")
    if keep is None:
        keep = spec.d
    if keep < 1 or keep > spec.d:
        raise DimensionError(f"keep must be in 1..{spec.d}, got {keep}")
    dtype = np.result_type(x, np.float64) if x.dtype.kind != "f" else x.dtype
    flipped = x.astype(dtype, order="C", copy=True)   # sums run in one order for any layout
    flipped = flipped.reshape(x.shape[:-1] + (spec.b, spec.L))
    flipped *= spec.signs[..., None]
    flipped = flipped.reshape(x.shape[:-1] + (spec.d,))
    if is_pow2(keep) and spec.d % keep == 0 and keep < spec.d:
        folded = flipped.reshape(x.shape[:-1] + (spec.d // keep, keep)).sum(axis=-2)
        fwht_inplace(folded)
        folded *= 1.0 / np.sqrt(spec.d // keep)
        return folded
    fwht_inplace(flipped)
    return flipped[..., :keep]


@dataclass
class CompressionProbeResult:
    """Prefix energy of the rotated mean against the retention threshold."""

    z: float
    threshold: float

    @property
    def exceeds_threshold(self) -> bool:
        return self.z > self.threshold


def compression_probe(spec: BrhtSpec, mu: np.ndarray, t: int) -> CompressionProbeResult:
    """z = ||(R mu)[: t*L]||^2 with threshold (t*L / (100*d)) * ||mu||^2."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1 or mu.shape[0] != spec.d:
        raise DimensionError(f"mean must be a length-{spec.d} vector, got shape {mu.shape}")
    if t < 1 or t > spec.b:
        raise DimensionError(f"prefix block count t must be in 1..{spec.b}, got {t}")
    prefix = brht_apply(spec, mu, keep=t * spec.L)
    z = float(np.dot(prefix, prefix))
    threshold = RETENTION_FACTOR * (t * spec.L / spec.d) * float(np.dot(mu, mu))
    return CompressionProbeResult(z=z, threshold=threshold)
