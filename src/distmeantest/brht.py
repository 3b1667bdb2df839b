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

from .errors import DimensionError, check_at_least
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
    check_at_least(x, 1, "pow2_floor input")
    return 1 << (int(x).bit_length() - 1)


def next_pow2(x: int) -> int:
    """Smallest power of two >= x (x >= 1)."""
    check_at_least(x, 1, "next_pow2 input")
    return 1 << (int(x - 1).bit_length() if x > 1 else 0)


@dataclass
class BrhtSpec:
    """A sampled transform: dimension d, block length L, b = d/L block signs.

    `signs` has shape (b,) for one transform, or (..., b) for a stack of
    (d, L) transforms, such as the (count, b) stack `sample_brht` draws
    (see `brht_apply` for how a stack meets a batch).
    """

    d: int
    L: int
    b: int
    signs: np.ndarray  # int8, shape (..., b)
    bits_consumed: int = 0


def sample_brht(seed: PublicSeed, d: int, L: int, count: int | None = None) -> BrhtSpec:
    """Draw the block signs for a (d, L) transform from the public seed.

    Given `count` >= 1, draw that many transforms in order, each from its
    own `fourwise_rademacher` call, as one spec whose signs have shape
    (count, b) and whose `bits_consumed` is their sum.  d and L are checked
    once, and b against the field cap, before any seed bit is drawn.
    """
    check_pow2(d, "d")
    check_pow2(L, "L")
    if L > d or d % L != 0:
        raise DimensionError(f"block length {L} must divide dimension {d}")
    b = d // L
    before = seed.consumed
    rows = [fourwise_rademacher(seed, b).signs for _ in range(1 if count is None else count)]
    return BrhtSpec(d=d, L=L, b=b, signs=rows[0] if count is None else np.array(rows, np.int8),
                    bits_consumed=seed.consumed - before)


def brht_apply(spec: BrhtSpec, x: np.ndarray, keep: int | None = None) -> np.ndarray:
    """Compute (R x)[:keep] for one vector or a batch with shape (..., d).

    The leading axes of `spec.signs` (shape (..., b)) broadcast against those
    of x: signs of shape (b,) rotate every vector of x by the one transform,
    a stack of shape (k, b) rotates row r of a (k, d) batch by transform r,
    and the same stack rotates one (d,) vector by each of its k transforms,
    in one pass, with the same values as k single applications.  The signs
    are applied as x is written into a new C-ordered result, so the sums run
    in one order for any layout of x; a float x keeps its dtype, any other
    becomes float64.  keep defaults to d.  When keep is a power of two
    dividing d the first `keep` output coordinates are computed directly by
    folding: the leading keep-row band of H_d is (1/sqrt(d/keep)) *
    [H_keep ... H_keep], so summing the sign-flipped chunks and transforming
    the length-keep fold gives the same values as slicing the full
    transform, in O(d + keep log keep) per vector instead of O(d log d).
    """
    x = np.asarray(x)
    if x.shape[-1] != spec.d:
        raise DimensionError(f"input has dimension {x.shape[-1]}, spec wants {spec.d}")
    if keep is None:
        keep = spec.d
    if keep < 1 or keep > spec.d:
        raise DimensionError(f"keep must be in 1..{spec.d}, got {keep}")
    dtype = np.result_type(x, np.float64) if x.dtype.kind != "f" else x.dtype
    flipped = np.multiply(x.reshape(x.shape[:-1] + (spec.b, spec.L)), spec.signs[..., None],
                          dtype=dtype, order="C")
    lead = flipped.shape[:-2]
    flipped = flipped.reshape(lead + (spec.d,))
    if is_pow2(keep) and spec.d % keep == 0 and keep < spec.d:
        folded = flipped.reshape(lead + (spec.d // keep, keep)).sum(axis=-2)
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
