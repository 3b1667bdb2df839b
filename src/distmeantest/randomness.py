"""Metered shared randomness and four-wise independent sign generation.

A `PublicSeed` is a finite string of public coin flips with a hard budget:
every consumer draws bits through `draw_bits`, which counts them and refuses
to overdraw.  `fourwise_rademacher` turns 4*log2(b) seed bits into b signs
that are exactly 4-wise independent: the bits are read as the coefficients of
a degree-3 polynomial over GF(2^k) (k = log2 b), the polynomial is evaluated
at all b field points, and the lowest-order bit of each evaluation is mapped
0 -> +1, 1 -> -1.  Any 4 evaluations of a uniform degree-3 polynomial at
distinct points are uniform and independent (invertible Vandermonde), so the
sign moments of orders up to 4 over distinct indices vanish exactly.

Multiplying by a fixed field element and taking the lowest bit are both
GF(2)-linear, so the b sign bits are a GF(2)-linear map of the 4k seed bits.
That map is built once per field degree k, with carry-less arithmetic over
all b points at once, and cached as a bit-packed (4k, b/8)-byte table: 24 KiB
at k = 12 and 512 KiB at k = 16.  A draw XORs the rows whose seed bit is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExhaustedError, ParameterError, check_at_least
from .hadamard import check_pow2

__all__ = ["PublicSeed", "RademacherBlockSigns", "fourwise_rademacher"]


# Condensed exponents of one irreducible polynomial per degree k (1..16);
# e.g. 8: (8, 4, 3, 2, 0) encodes x^8 + x^4 + x^3 + x^2 + 1.
_IRREDUCIBLE_EXPONENTS = {
    1: (1, 0),
    2: (2, 1, 0),
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 4, 3, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 6, 5, 3, 2, 1, 0),
    11: (11, 2, 0),
    12: (12, 7, 6, 5, 3, 1, 0),
    13: (13, 4, 3, 1, 0),
    14: (14, 7, 5, 3, 0),
    15: (15, 5, 4, 2, 0),
    16: (16, 5, 3, 2, 0),
}

_IRREDUCIBLE = {k: sum(1 << e for e in exps) for k, exps in _IRREDUCIBLE_EXPONENTS.items()}
# Largest k with a table polynomial: b four-wise signs need b <= 2^MAX_FIELD_DEGREE.
MAX_FIELD_DEGREE = max(_IRREDUCIBLE)
# The coefficients of the degree-3 polynomial: b > 1 signs cost this many
# log2(b)-bit draws from the seed.
POLY_COEFFICIENTS = 4
# The sign of a parity bit: 0 -> +1, 1 -> -1.
_SIGN_OF_BIT = np.array([1, -1], dtype=np.int8)
_SIGN_OF_BIT.flags.writeable = False


@dataclass
class PublicSeed:
    """A fixed budget of public random bits with exact draw accounting."""

    bits: np.ndarray  # uint8 array of 0/1
    consumed: int = 0

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.bits.ndim != 1 or self.bits.max(initial=0) > 1:
            raise ParameterError("seed bits must be a flat 0/1 array")

    @property
    def size(self) -> int:
        return int(self.bits.shape[0])

    @property
    def remaining(self) -> int:
        return self.size - self.consumed

    @classmethod
    def random(cls, s: int, rng: np.random.Generator) -> "PublicSeed":
        check_at_least(s, 0, "seed length")
        return cls(bits=rng.integers(0, 2, size=s, dtype=np.uint8))

    @classmethod
    def from_int(cls, value: int, length: int) -> "PublicSeed":
        """Seed whose bit string is `value` written MSB-first in `length` bits.

        Used by the exhaustive enumeration tests to sweep a whole seed space.
        """
        if value < 0 or value >= (1 << length):
            raise ParameterError(f"value {value} does not fit in {length} bits")
        bits = np.array([(value >> (length - 1 - i)) & 1 for i in range(length)],
                        dtype=np.uint8)
        return cls(bits=bits)

    def draw_bits(self, count: int) -> np.ndarray:
        """Consume and return the next `count` bits; overdraw is an error."""
        check_at_least(count, 0, "bit count")
        if self.consumed + count > self.size:
            raise BudgetExhaustedError(
                f"requested {count} public bits with only {self.remaining} of {self.size} left"
            )
        out = self.bits[self.consumed:self.consumed + count]
        self.consumed += count
        return out


@dataclass
class RademacherBlockSigns:
    """b signs in {-1,+1} plus the exact number of seed bits they cost."""

    signs: np.ndarray
    bits_consumed: int = 0

    def __post_init__(self):
        self.signs = np.asarray(self.signs, dtype=np.int8)


@lru_cache(maxsize=None)
def _sign_table(k: int) -> np.ndarray:
    """Bit-packed GF(2) matrix from the 4k seed bits to the 2^k sign bits,
    read-only and built once per field degree k (it never depends on the seed).

    Seed bit i*k + t is the bit of weight 2^(k-1-t) in coefficient i (MSB
    first, constant term first), so its row holds the lowest bit of the field
    product 2^(k-1-t) * x^i at every point x.
    """
    poly = _IRREDUCIBLE[k]

    def double(v: np.ndarray) -> np.ndarray:
        return (v << 1) ^ (v >> (k - 1)) * poly

    def mul(a: np.ndarray, c: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(a)
        for bit in range(k):
            acc ^= ((c >> bit) & 1) * a
            a = double(a)
        return acc

    x = np.arange(1 << k, dtype=np.uint32)
    x2 = mul(x, x)
    rows = []
    for v in (np.ones_like(x), x, x2, mul(x2, x)):
        lowest = []
        for _ in range(k):  # lowest[u] = LSB(2^u * x^i), the row of t = k-1-u
            lowest.append(v & 1)
            v = double(v)
        rows += lowest[::-1]
    table = np.packbits(np.array(rows, dtype=np.uint8), axis=1)
    table.flags.writeable = False
    return table


def fourwise_rademacher(seed: PublicSeed, b: int) -> RademacherBlockSigns:
    """Draw b four-wise independent Rademacher signs from the shared seed.

    b must be a power of two no larger than 2^MAX_FIELD_DEGREE.  b = 1
    consumes nothing and returns [+1]; any larger b consumes exactly
    4 * log2(b) bits (four field coefficients of log2(b) bits each, most
    significant bit first, constant term first).  A b past the field cap is
    rejected before any seed bit is drawn.
    """
    k = check_pow2(b, "sign count")
    if b == 1:
        return RademacherBlockSigns(signs=np.array([1], dtype=np.int8), bits_consumed=0)
    if k > MAX_FIELD_DEGREE:
        raise ParameterError(
            f"{b} signs need GF(2^{k}); field degree must be in 1..{MAX_FIELD_DEGREE}")
    raw = seed.draw_bits(POLY_COEFFICIENTS * k)
    # a seed holds only 0/1 bytes, so its bits read as a bool mask in place
    packed = np.bitwise_xor.reduce(_sign_table(k)[raw.view(bool)], axis=0)
    signs = _SIGN_OF_BIT[np.unpackbits(packed, count=b)]
    return RademacherBlockSigns(signs=signs, bits_consumed=raw.shape[0])
