"""Distributed testing protocols and their referees.

Every protocol here consumes real-valued user samples, produces the exact
bits each user transmits (a `Transcript` with integer accounting), and runs a
referee on the assembled binary samples.  Shared structure:

* users sign-quantize (blocks of) a blockwise-randomized-Hadamard rotation of
  their data and send a slice of the resulting bits;
* the referee reassembles product-distributed binary samples and applies the
  centralized collision test at a protocol-specific threshold;
* amplified protocols run 7 independent repetitions and accept only if every
  repetition accepts.

Each protocol is written once, in three parts.  Its *plan* (`*_plan`) holds
everything that does not depend on the trial: validation, transform block
length, threshold, and the layout, stated once as each repetition's runs of
senders (the transcript offsets are derived from them).  A *bit source*
returns the sign bits of the rotated, block-aggregated data of given users
at given rotated coordinates: `LiteralSource` quantizes real samples, and
the harness supplies a source that draws the bits from their exact law.  The
*trial body* `run_plan` draws the transforms from the public seed, asks the
source for each repetition's bits, runs the referee and hands the
repetition streams with the plan's runs to the `Transcript`, which builds
the per-user messages only when they are first read.  The public
`*_protocol` functions are plan + literal source + trial body.

Budget flooring policy: coordinate-block sizes (private/limited `ell`, the
per-repetition share of the heterogeneous-samples protocol, which doubles as
a transform block length) are floored to powers of two; wrap-around stream
segments (hetero-comm, mix-and-match) use exact integer shares since index
arithmetic needs no alignment.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .binary_test import ACCEPT, REJECT, bpmt_decide_threshold
from .brht import BrhtSpec, RETENTION_FACTOR, brht_apply, is_pow2, pow2_floor, sample_brht
from .errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    DimensionError,
    InfeasiblePartitionError,
    InsufficientPopulationError,
    ParameterError,
)
from .randomness import MAX_FIELD_DEGREE, PublicSeed

__all__ = [
    "UserSpec",
    "Decision",
    "Transcript",
    "sign_quantize",
    "aggregate_block",
    "wraparound_coords",
    "assemble_wraparound",
    "greedy_partition",
    "seed_block_length",
    "private_coin_protocol",
    "limited_coin_protocol",
    "hetero_samples_protocol",
    "hetero_comm_protocol",
    "mix_and_match_protocol",
]

REPETITIONS = 7
# Halving the transform block length costs 4 more seed bits in each of the
# 7 transforms.
SEED_BITS_PER_HALVING = 4 * REPETITIONS
# b four-wise signs are evaluations over GF(b), so b is capped by the field table.
MAX_SIGN_BLOCKS = 1 << MAX_FIELD_DEGREE
# Confidence/threshold constants baked into the protocol family.
SIGN_QUANTIZE_DISTANCE_FACTOR = 1.0 / np.sqrt(8.0)   # Gaussian -> binary distance loss
HETERO_DISTANCE_FACTOR = 1.0 / 80.0                  # heterogeneous referee prefactor


@dataclass(frozen=True)
class UserSpec:
    """Per-user resources: sample count m and bit budget ell."""

    m: int
    ell: int

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"user sample count must be >= 1, got {self.m}")
        if self.ell < 1:
            raise ParameterError(f"user bit budget must be >= 1, got {self.ell}")


@dataclass
class Decision:
    """Referee outcome; repetition_accepts is set by the amplified protocols."""

    verdict: str
    repetition_accepts: tuple[bool, ...] | None = None

    def consistent(self) -> bool:
        if self.repetition_accepts is None:
            return self.verdict in (ACCEPT, REJECT)
        return (self.verdict == ACCEPT) == all(self.repetition_accepts)


class Transcript:
    """Per-user transmitted bits in compressed row storage, plus seed usage.

    `data` holds every transmitted bit (0/1 uint8) with user k's message at
    data[offsets[k]:offsets[k+1]]; lengths are exact integers, never padded.
    Given `runs`, `data` is instead the list of repetition streams those runs
    lay out (see `Plan`), and the user-major bits are built from them on the
    first read of `data` and kept: a user's message is its per-repetition
    segments, in repetition order.  Counts and lengths never build them.
    """

    def __init__(self, offsets: np.ndarray, data, public_bits_used: int = 0,
                 runs: list[tuple[np.ndarray, np.ndarray]] | None = None):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.public_bits_used = int(public_bits_used)
        if runs is None:
            self._data = np.asarray(data, dtype=np.uint8)
            sizes = [self._data.shape[0]]
        else:
            self._data, self._streams, self._runs = None, data, runs
            sizes = [stream.shape[0] for stream in data]
            if sizes != [int(lengths.sum()) for _, lengths in runs]:
                raise ParameterError("repetition streams do not match their runs")
        if self.offsets.ndim != 1 or self.offsets[0] != 0 or self.offsets[-1] != sum(sizes):
            raise ParameterError("malformed transcript offsets")

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = _user_major(self.offsets, self._runs, self._streams)
        return self._data

    @property
    def n_users(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def bits_sent(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def total_bits(self) -> int:
        return int(self.offsets[-1])

    def message(self, k: int) -> np.ndarray:
        return self.data[self.offsets[k]:self.offsets[k + 1]]

    def serialize(self) -> bytes:
        """Per user: 4-byte big-endian bit count, then bits packed MSB-first."""
        out = bytearray()
        for k in range(self.n_users):
            msg = self.message(k)
            out += struct.pack(">I", msg.shape[0])
            if msg.shape[0]:
                out += np.packbits(msg).tobytes()
        return bytes(out)

    @classmethod
    def from_lengths(cls, lengths: np.ndarray, public_bits_used: int = 0) -> "Transcript":
        """Allocate a zeroed transcript with the given per-user bit counts."""
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return cls(offsets, np.zeros(int(offsets[-1]), dtype=np.uint8), public_bits_used)

    def fill_block(self, user_indices: np.ndarray, bits: np.ndarray) -> None:
        """Write equal-length messages for a batch of users (bits: (u, len))."""
        if bits.size == 0:
            return
        idx = self.offsets[np.asarray(user_indices)][:, None] + np.arange(bits.shape[1])
        self.data[idx] = bits


# ---------------------------------------------------------------------------
# encoding / assembly primitives


def sign_quantize(x: np.ndarray) -> np.ndarray:
    """1 where a coordinate is strictly positive, else 0 (any shape)."""
    return (np.asarray(x) > 0).astype(np.uint8)


def aggregate_block(samples: np.ndarray, t: int, block: int) -> np.ndarray:
    """Scaled sum of the t-th disjoint block of `block` samples (t is 1-based).

    samples has shape (..., m, d); returns shape (..., d) equal to
    (1/sqrt(block)) * sum of samples[(t-1)*block : t*block].
    """
    samples = np.asarray(samples)
    if samples.ndim < 2:
        raise DimensionError(f"expected (..., m, d) samples, got shape {samples.shape}")
    m = samples.shape[-2]
    if block < 1:
        raise ParameterError(f"block size must be >= 1, got {block}")
    if t < 1 or t * block > m:
        raise ParameterError(f"block {t} of size {block} does not fit in {m} samples")
    window = samples[..., (t - 1) * block:t * block, :]
    return window.sum(axis=-2) / np.sqrt(block)


def _user_major(offsets: np.ndarray, runs: list[tuple[np.ndarray, np.ndarray]],
                streams: list[np.ndarray]) -> np.ndarray:
    """Transcript data from repetition streams: user k's message is its
    segment of every repetition's stream, in repetition order."""
    data = np.empty(int(offsets[-1]), dtype=np.uint8)
    end = offsets[:-1].copy()      # where each user's next segment goes
    for (users, lengths), stream in zip(runs, streams):
        shift = end[users] - (np.cumsum(lengths) - lengths)
        data[np.repeat(shift, lengths) + np.arange(stream.shape[0])] = stream
        end[users] += lengths
    return data


def wraparound_coords(lengths: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Flattened (user, own-coordinate) pairs of the wrap-around layout.

    The global stream position q belongs to user k(q) (users fill consecutive
    spans of lengths[k] positions) and carries coordinate q mod L of that
    user's own quantized length-L vector.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 0) or np.any(lengths > L):
        raise ParameterError(f"per-user lengths must lie in 0..L={L}")
    total = int(lengths.sum())
    users = np.repeat(np.arange(lengths.shape[0]), lengths)
    coords = np.arange(total, dtype=np.int64) % L
    return users, coords


def assemble_wraparound(quantized: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Referee-side assembly of full binary samples from partial-budget users.

    quantized: (n, L) bit matrix of per-user quantized vectors; user k
    contributes lengths[k] bits.  Returns the floor(sum(lengths)/L) assembled
    samples; trailing bits that do not fill a sample are dropped.
    """
    quantized = np.asarray(quantized, dtype=np.uint8)
    if quantized.ndim != 2:
        raise DimensionError(f"expected an (n, L) bit matrix, got shape {quantized.shape}")
    L = quantized.shape[1]
    users, coords = wraparound_coords(lengths, L)
    stream = quantized[users, coords]
    n_sim = stream.shape[0] // L
    if n_sim == 0:
        raise InsufficientPopulationError(
            f"{stream.shape[0]} transmitted bits cannot fill one {L}-coordinate sample"
        )
    return stream[:n_sim * L].reshape(n_sim, L)


def greedy_partition(users: list[UserSpec], L: int) -> list[list[int]]:
    """Group users so every group holds at least 7L message bits.

    Users are taken in order of descending sample count (ties by index), so
    groups collect similar m values and the within-group minimum loses
    little.  A trailing group that cannot reach 7L is merged into the
    previous one.  Raises InfeasiblePartitionError when the whole population
    is short of 7L.
    """
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    need = REPETITIONS * L
    total = sum(u.ell for u in users)
    if total < need:
        raise InfeasiblePartitionError(
            f"population holds {total} message bits, below the per-group requirement {need}"
        )
    order = sorted(range(len(users)), key=lambda i: (-users[i].m, i))
    groups: list[list[int]] = []
    current: list[int] = []
    budget = 0
    for idx in order:
        current.append(idx)
        budget += users[idx].ell
        if budget >= need:
            groups.append(current)
            current = []
            budget = 0
    if current:
        groups[-1].extend(current)
    return groups


def _check_common(d: int, epsilon: float) -> None:
    if not is_pow2(d):
        raise DimensionError(f"protocol dimension must be a power of two, got {d}")
    if not (0.0 < epsilon <= 1.0):
        raise ParameterError(f"epsilon must be in (0, 1], got {epsilon}")


def _check_samples(samples: np.ndarray, d: int) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] != d:
        raise DimensionError(f"expected (n, {d}) samples, got shape {samples.shape}")
    return samples


def seed_block_length(d: int, s: int) -> int:
    """d_s = d / 2^min(floor(s/28), log2 d): the finest block length for which
    seven (d, d_s) transforms fit in s seed bits."""
    if s < 0:
        raise ParameterError(f"seed budget must be >= 0, got {s}")
    return d >> min(s // SEED_BITS_PER_HALVING, int(d).bit_length() - 1)


def _check_transforms(d: int, block: int, s: int) -> None:
    """Reject seven (d, block) transforms that the four-wise sign field or the
    s remaining seed bits cannot supply, before any seed bit is drawn."""
    signs = d // block
    if signs > MAX_SIGN_BLOCKS:
        raise ParameterError(
            f"d={d} with s={s} needs {signs} four-wise signs per transform; "
            f"the GF(2^{MAX_FIELD_DEGREE}) sign field caps this at {MAX_SIGN_BLOCKS}")
    need = REPETITIONS * 4 * (signs.bit_length() - 1)
    if need > s:
        raise BudgetExhaustedError(
            f"seven ({d}, {block}) transforms need {need} public bits, only {s} left")


# ---------------------------------------------------------------------------
# protocol core: a plan, a bit source, and the trial body that joins them


@dataclass
class Plan:
    """The trial-independent part of one protocol run.

    Repetition r draws a (d, block) transform from the public seed (none when
    block is None) and transmits runs[r] = (users, lengths): users[i] sends
    the next lengths[i] bits of the repetition's stream, and stream position
    q carries coordinate q mod width of its sender's rotated vector (the
    wrap-around layout).  Every full row of `width` positions is one referee
    sample, tested at threshold tau.  `blocks` is None when each user holds
    one sample; otherwise (sizes, row_size) builds row j from blocks of
    sizes[row_size[j]] samples, and repetition r aggregates block r + 1.

    `runs` is the whole layout: a user sends at most one segment per
    repetition, and its message is its segments in repetition order, so the
    transcript offsets of the n_users users (silent ones included) are
    derived from it.  A repetition whose referee would get fewer than two
    rows is rejected here, before any seed bit is drawn.
    """

    d: int
    block: int | None
    width: int
    tau: float
    n_users: int
    runs: list[tuple[np.ndarray, np.ndarray]]
    blocks: tuple[np.ndarray, np.ndarray] | None = None
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        lengths = np.zeros(self.n_users, dtype=np.int64)
        for r, (users, sent) in enumerate(self.runs):
            lengths[users] += sent
            total = int(sent.sum())
            if total // self.width < 2:
                raise InsufficientPopulationError(
                    f"repetition {r} sends {total} bits, which fill "
                    f"{total // self.width} full {self.width}-coordinate samples; "
                    f"the referee needs 2")
        self.offsets = np.concatenate([[0], np.cumsum(lengths)])


class LiteralSource:
    """Bit source that sign-quantizes real samples: an (n, d) matrix of single
    samples, or one (m_k, d) array per user when the plan aggregates blocks."""

    def __init__(self, samples):
        self.samples = samples

    def bits(self, plan: Plan, r: int, spec: BrhtSpec | None) -> np.ndarray:
        users, lengths = plan.runs[r]
        run_of, coords = wraparound_coords(lengths, plan.width)
        if plan.blocks is None:
            lo = int(users.min())
            x = self.samples[lo:int(users.max()) + 1]
            rotated = x if spec is None else brht_apply(spec, x, keep=plan.width)
            return sign_quantize(rotated[users[run_of] - lo, coords])
        sizes, row_size = plan.blocks
        run_block = sizes[row_size[(np.cumsum(lengths) - lengths) // plan.width]]
        quantized = np.empty((users.shape[0], plan.width), dtype=np.uint8)
        for b in np.unique(run_block).tolist():
            runs = np.flatnonzero(run_block == b)
            stacked = np.stack([np.asarray(self.samples[users[i]], dtype=np.float64)
                                [r * b:(r + 1) * b] for i in runs])
            quantized[runs] = sign_quantize(
                brht_apply(spec, aggregate_block(stacked, 1, b), keep=plan.width))
        return quantized[run_of, coords]


def run_plan(plan: Plan, seed: PublicSeed | None, source) -> tuple[Decision, Transcript]:
    """The trial body every protocol and every bit source share.

    `source.bits(plan, r, spec)` returns repetition r's stream under the
    transform spec.  Amplified plans accept only if every repetition does.
    """
    before = 0 if seed is None else seed.consumed
    rep_bits: list[np.ndarray] = []
    rep_accepts: list[bool] = []
    for r in range(len(plan.runs)):
        spec = None if plan.block is None else sample_brht(seed, plan.d, plan.block)
        bits = source.bits(plan, r, spec)
        n_sim = bits.shape[0] // plan.width
        sim = bits[:n_sim * plan.width].reshape(n_sim, plan.width)
        rep_accepts.append(bpmt_decide_threshold(sim, plan.tau) == ACCEPT)
        rep_bits.append(bits)
    used = 0 if seed is None else seed.consumed - before
    transcript = Transcript(plan.offsets, rep_bits, used, plan.runs)
    accepts = tuple(rep_accepts) if len(rep_accepts) > 1 else None
    return Decision(ACCEPT if all(rep_accepts) else REJECT, accepts), transcript


# ---------------------------------------------------------------------------
# private-coin protocol: d/ell users jointly simulate one full binary sample


def private_coin_layout(n: int, d: int, ell: int) -> tuple[int, int, int]:
    """(effective block size, users per simulated sample, simulated samples)."""
    if not (1 <= ell <= d):
        raise ParameterError(f"bit budget must be in 1..{d}, got {ell}")
    ell_eff = pow2_floor(ell)
    group = d // ell_eff
    return ell_eff, group, n // group


def private_coin_plan(n: int, d: int, ell: int, epsilon: float) -> Plan:
    """Plan of `private_coin_protocol` for n users."""
    _check_common(d, epsilon)
    ell_eff, group, n_sim = private_coin_layout(n, d, ell)
    active = n_sim * group
    eps = epsilon * SIGN_QUANTIZE_DISTANCE_FACTOR
    return Plan(d=d, block=None, width=d, tau=0.5 * eps * eps, n_users=n,
                runs=[(np.arange(active), np.full(active, ell_eff, dtype=np.int64))])


def private_coin_protocol(samples: np.ndarray, d: int, ell: int,
                          epsilon: float) -> tuple[Decision, Transcript]:
    """Each user quantizes its sample and sends one designated coordinate block.

    Groups of d/ell users yield one simulated binary sample each; the referee
    runs the centralized test at distance epsilon/sqrt(8).  Leftover users
    (an incomplete trailing group) stay silent.
    """
    samples = _check_samples(samples, d)
    return run_plan(private_coin_plan(samples.shape[0], d, ell, epsilon), None,
                    LiteralSource(samples))


# ---------------------------------------------------------------------------
# limited-public-coin protocol: 7 cohorts, fresh coarse rotation per cohort


def limited_coin_params(d: int, ell: int, s: int) -> tuple[int, int, int, float]:
    """(block length d_s, kept length L, effective ell, distance scale).

    d_s = d / 2^floor(s/28) (capped at 1), L = max(d_s, ell); the inner test
    runs at epsilon * sqrt(L / (100 d)).
    """
    d_s = seed_block_length(d, s)
    if not (1 <= ell <= d):
        raise ParameterError(f"bit budget must be in 1..{d}, got {ell}")
    ell_eff = pow2_floor(ell)
    L = max(d_s, ell_eff)
    scale = np.sqrt(RETENTION_FACTOR * L / d)
    return d_s, L, ell_eff, scale


def limited_coin_plan(n: int, d: int, ell: int, epsilon: float, s: int) -> Plan:
    """Plan of `limited_coin_protocol` for n users and s seed bits."""
    _check_common(d, epsilon)
    cohort_size = n // REPETITIONS
    d_s, L, ell_eff, scale = limited_coin_params(d, ell, s)
    _check_transforms(d, d_s, s)
    cohort = private_coin_plan(cohort_size, L, ell_eff, epsilon * scale)
    users, lengths = cohort.runs[0]
    runs = [(users + r * cohort_size, lengths) for r in range(REPETITIONS)]
    return Plan(d=d, block=d_s, width=L, tau=cohort.tau, n_users=n, runs=runs)


def limited_coin_protocol(samples: np.ndarray, d: int, ell: int, epsilon: float,
                          seed: PublicSeed) -> tuple[Decision, Transcript]:
    """Seven disjoint cohorts, each running the private-coin protocol on a
    freshly rotated-and-truncated view of its samples.

    Per repetition a (d, d_s) transform is drawn from the shared seed
    (4*log2(d/d_s) bits, so all seven fit in the seed's remaining bits by
    construction); the cohort keeps L = max(d_s, ell) coordinates and tests
    at distance epsilon * sqrt(L/(100 d)).  Accept only if every repetition
    accepts.
    """
    samples = _check_samples(samples, d)
    plan = limited_coin_plan(samples.shape[0], d, ell, epsilon, seed.remaining)
    return run_plan(plan, seed, LiteralSource(samples))


# ---------------------------------------------------------------------------
# heterogeneous sample counts: aggregate-then-quantize, 7 shared rotations


def hetero_share(ell: int, d: int) -> int:
    """Per-repetition share: floor(ell/7) floored to a power of two, <= d."""
    if ell < REPETITIONS:
        raise ParameterError(f"budget {ell} cannot fund {REPETITIONS} repetitions")
    return min(pow2_floor(ell // REPETITIONS), d)


def hetero_pair_weight(m: np.ndarray, block_floor: bool = True) -> float:
    """N = sum over ordered user pairs of sqrt(w_k1 * w_k2), w = floor(m/7)
    (or w = m when block_floor is False, the variant maximized by balanced
    allocations)."""
    m = np.asarray(m, dtype=np.int64)
    if np.any(m < 1):
        raise ParameterError("sample counts must be >= 1")
    w = (m // REPETITIONS).astype(np.float64) if block_floor else m.astype(np.float64)
    roots = np.sqrt(w)
    return float(roots.sum() ** 2 - w.sum())


def hetero_threshold(epsilon: float, ell: int, N: float, d: int, n: int) -> float:
    """tau = ((epsilon/80) * sqrt(ell*N / (7*d*n*(n-1))))^2 / 2."""
    eps_prime = HETERO_DISTANCE_FACTOR * epsilon * np.sqrt(
        ell * N / (REPETITIONS * d * n * (n - 1.0)))
    return 0.5 * eps_prime * eps_prime


def hetero_samples_plan(m: np.ndarray, d: int, ell: int, epsilon: float, s: int) -> Plan:
    """Plan of `hetero_samples_protocol` for sample counts m and s seed bits."""
    _check_common(d, epsilon)
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    if n < 2:
        raise DegenerateInputError(f"pairwise referee needs >= 2 users, got {n}")
    if np.any(m // REPETITIONS < 1):
        raise DegenerateInputError("every user needs at least 7 samples")
    share = hetero_share(ell, d)
    _check_transforms(d, share, s)
    tau = hetero_threshold(epsilon, ell, hetero_pair_weight(m), d, n)
    run = (np.arange(n), np.full(n, share, dtype=np.int64))
    return Plan(d=d, block=share, width=share, tau=tau, n_users=n, runs=[run] * REPETITIONS,
                blocks=np.unique(m // REPETITIONS, return_inverse=True))


def hetero_samples_protocol(samples: list[np.ndarray], m: np.ndarray, d: int, ell: int,
                            epsilon: float, seed: PublicSeed) -> tuple[Decision, Transcript]:
    """Users with m_k samples aggregate floor(m_k/7) of them per repetition,
    rotate with one of 7 shared transforms, and send the quantized leading
    share.  The referee weights users by sqrt(floor(m/7)) pairwise.
    """
    m = np.asarray(m, dtype=np.int64)
    if len(samples) != m.shape[0]:
        raise DimensionError(f"{len(samples)} sample sets for {m.shape[0]} users")
    plan = hetero_samples_plan(m, d, ell, epsilon, seed.remaining)
    for k, x in enumerate(samples):
        if np.shape(x) != (m[k], d):
            raise DimensionError(
                f"user samples must have shape ({m[k]}, {d}), got {np.shape(x)}")
    return run_plan(plan, seed, LiteralSource(samples))


# ---------------------------------------------------------------------------
# heterogeneous budgets: wrap-around assembly of partial quantized vectors


def hetero_comm_params(d: int, ells: np.ndarray, s: int) -> tuple[int, int, np.ndarray]:
    """(block length d_s, kept length L, per-user per-repetition shares)."""
    ells = np.asarray(ells, dtype=np.int64)
    if np.any(ells < 1):
        raise ParameterError("bit budgets must be >= 1")
    L = mix_and_match_keep_length(d, ells, s)
    return seed_block_length(d, s), L, np.minimum(ells // REPETITIONS, L)


def hetero_comm_plan(ells: np.ndarray, d: int, epsilon: float, s: int) -> Plan:
    """Plan of `hetero_comm_protocol` for budgets ells and s seed bits."""
    _check_common(d, epsilon)
    d_s, L, shares = hetero_comm_params(d, ells, s)
    _check_transforms(d, d_s, s)
    eps = epsilon * SIGN_QUANTIZE_DISTANCE_FACTOR * np.sqrt(RETENTION_FACTOR * L / d)
    return Plan(d=d, block=d_s, width=L, tau=0.5 * eps * eps, n_users=shares.shape[0],
                runs=[(np.arange(shares.shape[0]), shares)] * REPETITIONS)


def hetero_comm_protocol(samples: np.ndarray, d: int, ells: np.ndarray, epsilon: float,
                         seed: PublicSeed) -> tuple[Decision, Transcript]:
    """One sample per user, budgets ells; 7 repetitions of: rotate with a fresh
    shared (d, d_s) transform, keep L = max(d_s, max ell) coordinates,
    quantize, and send a floor(ell_k/7)-bit wrap-around share.  The referee
    assembles full L-coordinate samples across users and tests at distance
    (epsilon/sqrt(8)) * sqrt(L/(100 d)).
    """
    samples = _check_samples(samples, d)
    ells = np.asarray(ells, dtype=np.int64)
    if ells.shape != (samples.shape[0],):
        raise DimensionError(f"need one budget per user, got shape {ells.shape}")
    return run_plan(hetero_comm_plan(ells, d, epsilon, seed.remaining), seed,
                    LiteralSource(samples))


# ---------------------------------------------------------------------------
# mix-and-match: greedy groups emulate strong users, then hetero referee


def mix_and_match_keep_length(d: int, ells: np.ndarray, s: int) -> int:
    """L = max(d/2^floor(s/28), max ell), floored to a power of two, capped at d."""
    ells = np.asarray(ells, dtype=np.int64)
    return min(d, max(seed_block_length(d, s), pow2_floor(int(min(ells.max(), d)))))


def mix_and_match_plan(users: list[UserSpec], d: int, epsilon: float, s: int,
                       partition: list[list[int]] | None = None) -> Plan:
    """Plan of `mix_and_match_protocol` for s seed bits."""
    _check_common(d, epsilon)
    n = len(users)
    ells = np.array([u.ell for u in users], dtype=np.int64)
    ms = np.array([u.m for u in users], dtype=np.int64)
    L = mix_and_match_keep_length(d, ells, s)
    _check_transforms(d, L, s)
    if partition is None:
        partition = greedy_partition(users, L)

    sizes = np.array([len(group) for group in partition], dtype=np.int64)
    order = np.array([i for group in partition for i in group], dtype=np.int64)
    if order.shape[0] != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise ParameterError("partition must cover every user exactly once")
    need, K = REPETITIONS * L, len(partition)
    group = np.repeat(np.arange(K), sizes)
    budget = np.bincount(group, weights=ells[order], minlength=K)
    if np.any(budget < need):
        raise InfeasiblePartitionError(
            f"group budget {int(budget[budget < need][0])} is below the requirement {need}")
    if K < 2:
        raise DegenerateInputError(f"pairwise referee needs >= 2 groups, got {K}")
    first = np.cumsum(sizes) - sizes
    group_min_m = np.minimum.reduceat(ms[order], first)
    if np.any(group_min_m // REPETITIONS < 1):
        raise DegenerateInputError("every group needs min sample count >= 7")
    tau = hetero_threshold(epsilon, need, hetero_pair_weight(group_min_m), d, K)

    # In group order, user k fills positions [start, start + span) of its
    # group's 7L-position stream; position p is coordinate p mod L of the
    # user's repetition-(p div L) vector.
    ells_o = ells[order]
    cum = np.cumsum(ells_o) - ells_o
    start = np.minimum(cum - cum[first][group], need)
    span = np.minimum(ells_o, need - start)
    runs = []
    for r in range(REPETITIONS):
        sent = np.minimum(start + span, (r + 1) * L) - np.maximum(start, r * L)
        runs.append((order[sent > 0], sent[sent > 0]))
    return Plan(d=d, block=L, width=L, tau=tau, n_users=n, runs=runs,
                blocks=np.unique(group_min_m // REPETITIONS, return_inverse=True))


def mix_and_match_protocol(samples: list[np.ndarray], users: list[UserSpec], d: int,
                           epsilon: float, seed: PublicSeed,
                           partition: list[list[int]] | None = None,
                           ) -> tuple[Decision, Transcript]:
    """Groups of users jointly emulate one strong user each.

    Every user in a group aggregates blocks of its first m' = min-group-m
    samples, rotates with the 7 shared (d, L) transforms, quantizes, and fills
    its span of the group's 7L-position stream (position p carries coordinate
    p mod L of the repetition-(p div L) vector).  Groups then act as K users
    of the heterogeneous-samples referee with weights floor(m'/7) and
    effective budget 7L.
    """
    if len(samples) != len(users):
        raise DimensionError(f"{len(samples)} sample sets for {len(users)} users")
    plan = mix_and_match_plan(users, d, epsilon, seed.remaining, partition)
    for i in np.flatnonzero(np.diff(plan.offsets)):
        arr = np.asarray(samples[i])
        if arr.ndim != 2 or arr.shape[0] < users[i].m or arr.shape[1] != d:
            raise DimensionError(f"user {i} samples must have shape ({users[i].m}, {d})")
    return run_plan(plan, seed, LiteralSource(samples))
