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
senders (a `Layout`, which derives each user's bit count and the transcript
offsets from them, once per plan), with the flip-probability groups of the
referee's rows and whether repetition r reads block r + 1 of each sender's
samples or the sender's one sample.  A *bit source* returns, for a whole
trial, each repetition's column counts over the referee's full rows and its
stream of sign bits of the rotated, block-aggregated data of the senders at
their rotated coordinates: `LiteralSource` quantizes real samples, and the
harness supplies a source that draws the counts from their exact law and
the streams only on demand.  The *trial body* `run_plan` draws all of the
trial's transforms from the public seed, calls the source once, referees
the counts and hands the repetition streams with the plan, as their layout,
to the `Transcript`, which builds the per-user messages only when they are
first read.  The public `*_protocol` functions are plan + literal source +
trial body.

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

from .binary_test import ACCEPT, REJECT, collision_statistic_counts
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
    "Layout",
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
    """Referee outcome; repetition_accepts is set by the amplified protocols,
    and statistics (each repetition's collision statistic T) by `run_plan`."""

    verdict: str
    repetition_accepts: tuple[bool, ...] | None = None
    statistics: tuple[float, ...] | None = None

    def consistent(self) -> bool:
        if self.repetition_accepts is None:
            return self.verdict in (ACCEPT, REJECT)
        return (self.verdict == ACCEPT) == all(self.repetition_accepts)


@dataclass(eq=False)
class Layout:
    """Who sends which bits of each repetition's stream.

    runs[r] = (users, lengths): users[i] sends the next lengths[i] bits of
    repetition r's stream.  A user sends at most one segment per repetition,
    and its message is its segments in repetition order.  Derived here, once:
    `lengths` (each of the n_users users' bits, silent users included), the
    transcript `offsets` (their cumulative sum from 0) and `totals` (each
    stream's length).  `lengths` and `offsets` are read-only, because every
    trial's transcript shares them, and layouts compare by identity.  Runs
    whose per-user lengths do not sum to the streams' total (a run naming
    one user twice) are rejected.
    """

    runs: list[tuple[np.ndarray, np.ndarray]]
    n_users: int
    lengths: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)
    totals: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        self.totals = tuple(int(sent.sum()) for _, sent in self.runs)
        self.lengths = np.zeros(self.n_users, dtype=np.int64)
        for users, sent in self.runs:
            self.lengths[users] += sent
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        if self.offsets[-1] != sum(self.totals):
            raise ParameterError("per-user lengths do not sum to the streams' total "
                                 "(a run names one user more than once)")
        self.lengths.flags.writeable = self.offsets.flags.writeable = False


class Transcript:
    """Per-user transmitted bits, plus seed usage.

    The bits are held as a `Layout` and the repetition streams it lays out,
    each stream an array or a zero-argument callable that draws it.  The
    offsets, per-user lengths and total are the layout's, shared by every
    transcript of one plan; they are exact integers, never padded.  On the
    first read of `data` the streams are resolved in repetition order and
    the user-major bits (user k's message at data[offsets[k]:offsets[k+1]])
    are built from them and kept: a user's message is its per-repetition
    segments, in repetition order.  Counts and lengths never build them.
    """

    def __init__(self, layout: Layout, streams, public_bits_used: int = 0):
        self.layout = layout
        self.public_bits_used = int(public_bits_used)
        self._data, self._streams = None, list(streams)
        if len(self._streams) != len(layout.runs) or any(
                not callable(stream) and stream.shape[0] != total
                for stream, total in zip(self._streams, layout.totals)):
            raise ParameterError("repetition streams do not match their runs")

    @property
    def streams(self) -> list[np.ndarray]:
        """The repetition streams, resolved in repetition order on first read."""
        for r, stream in enumerate(self._streams):
            if callable(stream):
                stream = self._streams[r] = stream()
                if stream.shape[0] != self.layout.totals[r]:
                    raise ParameterError("repetition streams do not match their runs")
        return self._streams

    @property
    def data(self) -> np.ndarray:
        if self._data is None:
            self._data = _user_major(self.layout, self.streams)
        return self._data

    @property
    def offsets(self) -> np.ndarray:
        return self.layout.offsets

    @property
    def n_users(self) -> int:
        return self.layout.n_users

    @property
    def bits_sent(self) -> np.ndarray:
        return self.layout.lengths

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
        """Allocate a zeroed transcript with the given per-user bit counts:
        the one-run layout in which every user sends its whole message."""
        lengths = np.asarray(lengths, dtype=np.int64)
        layout = Layout(runs=[(np.arange(lengths.shape[0]), lengths)], n_users=lengths.shape[0])
        return cls(layout, [np.zeros(layout.totals[0], dtype=np.uint8)], public_bits_used)


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


def _user_major(layout: Layout, streams: list[np.ndarray]) -> np.ndarray:
    """Transcript data from repetition streams: user k's message is its
    segment of every repetition's stream, in repetition order."""
    data = np.empty(int(layout.offsets[-1]), dtype=np.uint8)
    end = layout.offsets[:-1].copy()      # where each user's next segment goes
    for (users, lengths), stream in zip(layout.runs, streams):
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


def greedy_partition(ms: np.ndarray, ells: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Group users, given their sample counts ms and bit budgets ells, so
    every group holds at least 7L message bits.

    Users are taken in order of descending sample count (ties by index), so
    groups collect similar m values and the within-group minimum loses
    little.  A trailing group that cannot reach 7L is merged into the
    previous one.  Returns (order, sizes): the users in group order and each
    group's size, so the groups are consecutive slices of order.  Raises
    InfeasiblePartitionError when the whole population is short of 7L.
    """
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    need = REPETITIONS * L
    total = int(ells.sum())
    if total < need:
        raise InfeasiblePartitionError(
            f"population holds {total} message bits, below the per-group requirement {need}"
        )
    order = np.argsort(-ms, kind="stable")
    ends: list[int] = []
    budget = 0
    for i, ell in enumerate(ells[order].tolist(), start=1):
        budget += ell
        if budget >= need:
            ends.append(i)
            budget = 0
    ends[-1] = order.shape[0]
    return order, np.diff(ends, prepend=0)


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


@dataclass(eq=False)
class Plan(Layout):
    """The trial-independent part of one protocol run.

    Repetition r draws a (d, block) transform from the public seed (none when
    block is None) and transmits runs[r] = (users, lengths) of its `Layout`:
    users[i] sends the next lengths[i] bits of the repetition's stream, and
    stream position q carries coordinate q mod width of its sender's rotated
    vector (the wrap-around layout).  Every full row of `width` positions is
    one referee sample, tested at threshold tau.  Every repetition has the
    same number of full rows.

    `blocks` is given by the plans whose users aggregate samples: row j's
    senders sum blocks of blocks[j] samples, and repetition r reads block
    r + 1 of each sender's samples.  Without it each user holds one sample,
    which every repetition reads; `reads_blocks` states which.  Rows whose
    senders share a block size share their bits' law: `groups` is (the block
    size of each flip-probability group, the group of each full row), one
    group of block size 1 when each user holds one sample, and
    `group_rows` counts the full rows per group, the same in every
    repetition.

    The plan is the layout of every transcript it produces: the per-user
    lengths, offsets and stream totals are derived once, by `Layout`.  A
    repetition whose referee would get fewer than two rows, or a threshold
    that is not finite and >= 0, is rejected here, before any seed bit is
    drawn.
    """

    d: int
    block: int | None
    width: int
    tau: float
    blocks: np.ndarray | None = None
    groups: tuple[np.ndarray, np.ndarray] = field(init=False)
    group_rows: np.ndarray = field(init=False)

    @property
    def reads_blocks(self) -> bool:
        """Whether repetition r reads block r + 1 of each sender's samples,
        rather than the sender's one sample."""
        return self.blocks is not None

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau >= 0.0):
            raise ParameterError(f"threshold must be finite and >= 0, got {self.tau}")
        self.tau = float(self.tau)
        super().__post_init__()
        for r, total in enumerate(self.totals):
            if total // self.width < 2:
                raise InsufficientPopulationError(
                    f"repetition {r} sends {total} bits, which fill "
                    f"{total // self.width} full {self.width}-coordinate samples; "
                    f"the referee needs 2")
        rows = self.totals[0] // self.width
        sizes, row_group = np.unique(self.blocks if self.reads_blocks else np.ones(rows, np.int64),
                                     return_inverse=True)
        if any(total // self.width != row_group.shape[0] for total in self.totals):
            raise ParameterError(f"every repetition must fill the plan's {row_group.shape[0]} rows")
        self.groups = (sizes, row_group)
        self.group_rows = np.bincount(row_group, minlength=sizes.shape[0])


class LiteralSource:
    """Bit source that sign-quantizes real samples.

    `samples` is one (rows, d) array holding every user's samples as
    consecutive rows, and user k's samples start at row first[k].  In
    repetition r a sender reads row first[k] when each user holds one sample,
    and the `block` rows from first[k] + r * block when the plan reads blocks;
    their scaled sum is written into a gathered float row, so such samples
    must be float64.  The trial's repetitions are quantized one after another.
    """

    def __init__(self, samples: np.ndarray, first: np.ndarray):
        self.samples = samples
        self.first = first

    def draw(self, plan: Plan, specs: list[BrhtSpec | None]):
        """Each repetition's column counts over its full rows, and its bits."""
        streams = [self._bits(plan, r, spec) for r, spec in enumerate(specs)]
        return [bits[:t - t % plan.width].reshape(-1, plan.width).sum(axis=0, dtype=np.int64)
                for bits, t in zip(streams, plan.totals)], streams

    def _bits(self, plan: Plan, r: int, spec: BrhtSpec | None) -> np.ndarray:
        """Repetition r's stream: the senders' rows (a slice of the rows they
        span, or one gathered row per sender, block-aggregated where blocks
        are longer than one sample), rotated in one call, and sign-quantized
        at the sent (row, coordinate) pairs."""
        users, lengths = plan.runs[r]
        run_of, coords = wraparound_coords(lengths, plan.width)
        rows = self.first[users]
        if plan.reads_blocks:
            block = plan.blocks[(np.cumsum(lengths) - lengths) // plan.width]
            rows = rows + r * block
            x = self.samples[rows]
            for b in np.unique(block[block > 1]).tolist():
                senders = np.flatnonzero(block == b)
                x[senders] = aggregate_block(self.samples[rows[senders, None] + np.arange(b)], 1, b)
            picked = run_of
        else:
            lo = int(rows.min())
            x = self.samples[lo:int(rows.max()) + 1]
            picked = rows[run_of] - lo
        rotated = x if spec is None else brht_apply(spec, x, keep=plan.width)
        return sign_quantize(rotated[picked, coords])


def _user_rows(samples: list, m: list[int] | np.ndarray, d: int, exact: bool) -> LiteralSource:
    """The literal source of per-user sample arrays: every user's array is
    checked, silent users included, and then all are concatenated once as
    float64 rows.  User k's array must have d columns and m[k] rows, or at
    least m[k] rows when not `exact`; `first` follows the actual row counts."""
    arrays = [np.asarray(x) for x in samples]
    for k, x in enumerate(arrays):
        if x.ndim != 2 or x.shape[1] != d or x.shape[0] < m[k] or (exact and x.shape[0] != m[k]):
            raise DimensionError(f"user {k} samples must have shape ({m[k]}, {d}), got {x.shape}")
    counts = np.array([x.shape[0] for x in arrays], dtype=np.int64)
    return LiteralSource(np.concatenate(arrays, dtype=np.float64), np.cumsum(counts) - counts)


def run_plan(plan: Plan, seed: PublicSeed, source) -> tuple[Decision, Transcript]:
    """The trial body every protocol and every bit source share.

    The trial's transforms are drawn from the public seed first, in
    repetition order (a plan without transforms draws none, so its seed may
    be empty), and the transcript records the seed bits they consumed.  Then
    one call `source.draw(plan, specs)` returns each repetition's column
    counts over its full rows under its transform spec, and each
    repetition's stream (an array, or a callable the transcript resolves on
    first read).  The referee reads only the counts: a repetition rejects
    iff its collision statistic exceeds `plan.tau`, and amplified plans
    accept only if every repetition does.  The plan is the transcript's
    layout, so every trial of a plan shares its lengths and offsets.
    """
    before = seed.consumed
    specs = [None if plan.block is None else sample_brht(seed, plan.d, plan.block)
             for _ in plan.runs]
    ones, streams = source.draw(plan, specs)
    statistics = tuple(collision_statistic_counts(counts, total // plan.width)
                       for counts, total in zip(ones, plan.totals))
    transcript = Transcript(plan, streams, seed.consumed - before)
    rep_accepts = tuple(t <= plan.tau for t in statistics)
    accepts = rep_accepts if len(rep_accepts) > 1 else None
    verdict = ACCEPT if all(rep_accepts) else REJECT
    return Decision(verdict, accepts, statistics), transcript


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
    return run_plan(private_coin_plan(samples.shape[0], d, ell, epsilon), PublicSeed(np.zeros(0)),
                    LiteralSource(samples, np.arange(samples.shape[0])))


# ---------------------------------------------------------------------------
# limited-public-coin protocol: 7 cohorts, fresh coarse rotation per cohort


def limited_coin_params(d: int, ell: int, s: int) -> tuple[int, int, int, float]:
    """(block length d_s, kept length L, effective ell, distance scale).

    d_s = d / 2^floor(s/28) (capped at 1), L = max(d_s, ell) by the keep
    rule of `mix_and_match_keep_length`; the inner test runs at
    epsilon * sqrt(L / (100 d)).
    """
    d_s = seed_block_length(d, s)
    if not (1 <= ell <= d):
        raise ParameterError(f"bit budget must be in 1..{d}, got {ell}")
    L = mix_and_match_keep_length(d, np.array([ell]), s)
    scale = np.sqrt(RETENTION_FACTOR * L / d)
    return d_s, L, pow2_floor(ell), scale


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
    return run_plan(plan, seed, LiteralSource(samples, np.arange(samples.shape[0])))


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


def _pairwise_referee(m: np.ndarray, ell: int, d: int, epsilon: float) -> tuple[float, np.ndarray]:
    """(threshold, block size floor(m_k/7) of each sender) of the
    heterogeneous-samples referee over senders holding m_k samples and ell
    message bits each."""
    if m.shape[0] < 2:
        raise DegenerateInputError(f"pairwise referee needs >= 2 senders, got {m.shape[0]}")
    if np.any(m < REPETITIONS):
        raise DegenerateInputError("every sender needs at least 7 samples")
    return hetero_threshold(epsilon, ell, hetero_pair_weight(m), d, m.shape[0]), m // REPETITIONS


def hetero_samples_plan(m: np.ndarray, d: int, ell: int, epsilon: float, s: int) -> Plan:
    """Plan of `hetero_samples_protocol` for sample counts m and s seed bits."""
    _check_common(d, epsilon)
    m = np.asarray(m, dtype=np.int64)
    n = m.shape[0]
    tau, blocks = _pairwise_referee(m, ell, d, epsilon)
    share = hetero_share(ell, d)
    _check_transforms(d, share, s)
    run = (np.arange(n), np.full(n, share, dtype=np.int64))
    return Plan(d=d, block=share, width=share, tau=tau, n_users=n, runs=[run] * REPETITIONS,
                blocks=blocks)


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
    return run_plan(plan, seed, _user_rows(samples, m, d, exact=True))


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
                    LiteralSource(samples, np.arange(samples.shape[0])))


# ---------------------------------------------------------------------------
# mix-and-match: greedy groups emulate strong users, then hetero referee


def mix_and_match_keep_length(d: int, ells: np.ndarray, s: int) -> int:
    """L = max(d/2^floor(s/28), max ell), floored to a power of two, capped at d."""
    ells = np.asarray(ells, dtype=np.int64)
    return min(d, max(seed_block_length(d, s), pow2_floor(int(min(ells.max(), d)))))


def mix_and_match_plan(ms: np.ndarray, ells: np.ndarray, d: int, epsilon: float, s: int,
                       partition: list[list[int]] | None = None) -> Plan:
    """Plan of `mix_and_match_protocol` for users with sample counts ms and
    bit budgets ells, and s seed bits; the groups are `partition` when
    given, else `greedy_partition`'s."""
    _check_common(d, epsilon)
    ms = np.asarray(ms, dtype=np.int64)
    ells = np.asarray(ells, dtype=np.int64)
    n = ms.shape[0]
    L = mix_and_match_keep_length(d, ells, s)
    _check_transforms(d, L, s)
    if partition is None:
        order, sizes = greedy_partition(ms, ells, L)
    else:
        sizes = np.array([len(group) for group in partition], dtype=np.int64)
        order = np.array([i for group in partition for i in group], dtype=np.int64)
        if order.shape[0] != n or not np.array_equal(np.sort(order), np.arange(n)):
            raise ParameterError("partition must cover every user exactly once")
    need, K = REPETITIONS * L, sizes.shape[0]
    group = np.repeat(np.arange(K), sizes)
    budget = np.bincount(group, weights=ells[order], minlength=K)
    if np.any(budget < need):
        raise InfeasiblePartitionError(
            f"group budget {int(budget[budget < need][0])} is below the requirement {need}")
    first = np.cumsum(sizes) - sizes
    tau, blocks = _pairwise_referee(np.minimum.reduceat(ms[order], first), need, d, epsilon)

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
    return Plan(d=d, block=L, width=L, tau=tau, n_users=n, runs=runs, blocks=blocks)


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
    ms, ells = np.array([[u.m for u in users], [u.ell for u in users]], dtype=np.int64)
    plan = mix_and_match_plan(ms, ells, d, epsilon, seed.remaining, partition)
    return run_plan(plan, seed, _user_rows(samples, ms, d, exact=False))
