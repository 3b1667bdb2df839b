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
offsets from them, once per plan; mix-and-match states the bit counts and
builds the runs only when read), with the flip-probability groups of the
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

from dataclasses import dataclass

import numpy as np

from .binary_test import ACCEPT, REJECT, check_epsilon, check_threshold, collision_statistic_counts
from .brht import BrhtSpec, RETENTION_FACTOR, brht_apply, pow2_floor, sample_brht
from .errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    DimensionError,
    InfeasiblePartitionError,
    InsufficientPopulationError,
    ParameterError,
)
from .hadamard import check_pow2
from .randomness import MAX_FIELD_DEGREE, POLY_COEFFICIENTS, PublicSeed

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
# Halving the transform block length costs one more bit per sign-polynomial
# coefficient in each of the 7 transforms.
SEED_BITS_PER_HALVING = POLY_COEFFICIENTS * REPETITIONS
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

    The runs may instead be given as a zero-argument callable that builds
    them, with the per-user `lengths` and the stream `totals` they lay out
    (the idiom of `Transcript`'s deferred streams).  They are then built on
    the first read of `runs`, and rejected unless they give exactly those
    lengths and totals; a reader of lengths, offsets and totals alone, such
    as a law-path trial and its audit, never builds them.
    """

    def __init__(self, runs, n_users: int, lengths=None, totals=None):
        self.n_users = n_users
        if callable(runs):
            self._runs, self._build_runs = None, runs
            self.lengths = np.asarray(lengths, dtype=np.int64)
            self.totals = tuple(int(total) for total in totals)
        else:
            self._runs = runs
            self.lengths, self.totals = _lengths_and_totals(runs, n_users)
        self.offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        if self.offsets[-1] != sum(self.totals):
            raise ParameterError("per-user lengths do not sum to the streams' total "
                                 "(a run names one user more than once)")
        self.lengths.flags.writeable = self.offsets.flags.writeable = False

    @property
    def runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._runs is None:
            runs = self._build_runs()
            lengths, totals = _lengths_and_totals(runs, self.n_users)
            if totals != self.totals or not np.array_equal(lengths, self.lengths):
                raise ParameterError("runs do not give the layout's stated per-user lengths "
                                     "and stream totals")
            self._runs = runs
        return self._runs


def _lengths_and_totals(runs, n_users: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Each user's bit count over the runs, and each run's stream length."""
    lengths = np.zeros(n_users, dtype=np.int64)
    for users, sent in runs:
        lengths[users] += sent
    return lengths, tuple(int(sent.sum()) for _, sent in runs)


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
        self._check_streams()

    def _check_streams(self) -> None:
        """One stream per run, and each array stream as long as its run."""
        if len(self._streams) != len(self.layout.totals) or any(
                not callable(stream) and stream.shape[0] != total
                for stream, total in zip(self._streams, self.layout.totals)):
            raise ParameterError("repetition streams do not match their runs")

    @property
    def streams(self) -> list[np.ndarray]:
        """The repetition streams, resolved in repetition order on first read."""
        self._streams[:] = [stream() if callable(stream) else stream for stream in self._streams]
        self._check_streams()
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
        """Per user: 4-byte big-endian bit count, then bits packed MSB-first
        and zero-padded to a whole byte.  Every user's record is laid out in
        one byte-padded bit array, which is packed once."""
        lengths = self.bits_sent
        record_bits = 32 + 8 * ((lengths + 7) // 8)
        start = np.cumsum(record_bits) - record_bits
        bits = np.zeros(int(record_bits.sum()), dtype=np.uint8)
        bits[start[:, None] + np.arange(32)] = np.unpackbits(
            lengths.astype(">u4").view(np.uint8).reshape(-1, 4), axis=1)
        body = np.repeat(start + 32 - self.offsets[:-1], lengths) + np.arange(self.total_bits)
        bits[body] = self.data
        return np.packbits(bits).tobytes()

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
    little; each group closes at the first user that brings it to 7L bits.
    A trailing group that cannot reach 7L is merged into the previous one.
    Returns (order, sizes): the users in group order and each group's size,
    so the groups are consecutive slices of order.  Raises
    InfeasiblePartitionError when the whole population is short of 7L.

    Budgets are clipped at 7L first, which moves no group boundary (a user
    holding 7L bits closes its group either way) and keeps every sum within
    int64.  The walk then goes run by run over the clipped budgets in group
    order: in a run of c users of v bits each, the open group closes after
    ceil((7L - held) / v) users and every later group after ceil(7L / v),
    so the loop runs once per run, not once per user.
    """
    if L < 1:
        raise ParameterError(f"L must be >= 1, got {L}")
    need = REPETITIONS * L
    order = np.argsort(-ms, kind="stable")
    budgets = _clipped_budgets(ells[order], L)
    total = int(budgets.sum())
    if total < need:
        raise InfeasiblePartitionError(
            f"population holds {total} message bits, below the per-group requirement {need}"
        )
    # the runs of equal budgets in group order: first user, users, bits
    start = np.flatnonzero(np.r_[True, budgets[1:] != budgets[:-1]])
    users = np.diff(start, append=order.shape[0])
    runs_users, closes, held = users.tolist(), [], 0
    for i, w in enumerate((budgets[start] * users).tolist()):
        held += w
        if held >= need:
            c = runs_users[i]
            if c == 1:              # a lone user closes the group (interleaved mixes)
                closes += i, 1, 1, 1
                held = 0
                continue
            # the open group, holding held - w bits, closes at the run's t-th
            # user, and each later one k users on: q groups in all
            held -= w
            v = w // c
            t, k = -((held - need) // v), -(-need // v)
            q = (c - t) // k + 1
            closes += i, t, k, q
            held = (c - t) % k * v
    i, t, k, q = np.array(closes, dtype=np.int64).reshape(-1, 4).T
    j = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)
    ends = np.repeat(start[i] + t, q) + np.repeat(k, q) * j
    ends[-1] = order.shape[0]
    return order, np.diff(ends, prepend=0)


def _clipped_budgets(budgets: np.ndarray, L: int) -> np.ndarray:
    """Bit budgets clipped at the 7L bits of a group's stream: no user fills
    more than its group's stream, and no sum of budgets passes int64."""
    return np.minimum(budgets, REPETITIONS * L)


def _check_common(d: int, epsilon: float) -> None:
    check_pow2(d, "protocol dimension")
    check_epsilon(epsilon)


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
    need = SEED_BITS_PER_HALVING * (signs.bit_length() - 1)
    if need > s:
        raise BudgetExhaustedError(
            f"seven ({d}, {block}) transforms need {need} public bits, only {s} left")


# ---------------------------------------------------------------------------
# protocol core: a plan, a bit source, and the trial body that joins them


class Plan(Layout):
    """The trial-independent part of one protocol run.

    Repetition r draws a (d, block) transform from the public seed (none when
    block is None) and transmits runs[r] = (users, lengths) of its `Layout`:
    users[i] sends the next lengths[i] bits of the repetition's stream, and
    stream position q carries coordinate q mod width of its sender's rotated
    vector (the wrap-around layout).  Every full row of `width` positions is
    one referee sample, tested at threshold tau.  Every repetition has the
    same number of full rows, `rows`, stated here once for every reader.

    `blocks` is given by the plans whose users aggregate samples: row j's
    senders sum blocks of blocks[j] samples, and repetition r reads block
    r + 1 of each sender's samples.  Without it each user holds one sample,
    which every repetition reads; `reads_blocks` states which.  Rows whose
    senders share a block size share their bits' law: `groups` is (the block
    size of each flip-probability group, the group of each full row), one
    group of block size 1 when each user holds one sample, and
    `group_rows` counts the full rows per group, the same in every
    repetition; both come from the one pass that finds the groups.

    The plan is the layout of every transcript it produces: the per-user
    lengths, offsets and stream totals are derived once, by `Layout`, or
    stated with a builder of the runs (`lengths`, `totals`).  A
    repetition whose referee would get fewer than two rows, or a threshold
    that is not finite and >= 0, is rejected here, before any seed bit is
    drawn.
    """

    def __init__(self, runs, n_users: int, *, d: int, block: int | None, width: int,
                 tau: float, blocks: np.ndarray | None = None, lengths=None, totals=None):
        check_threshold(tau)
        super().__init__(runs, n_users, lengths, totals)
        self.d, self.block, self.width, self.tau, self.blocks = d, block, width, float(tau), blocks
        for r, total in enumerate(self.totals):
            if total // width < 2:
                raise InsufficientPopulationError(
                    f"repetition {r} sends {total} bits, which fill "
                    f"{total // width} full {width}-coordinate samples; "
                    f"the referee needs 2")
        sizes, row_group, self.group_rows = np.unique(
            blocks if self.reads_blocks else np.ones(self.totals[0] // width, np.int64),
            return_inverse=True, return_counts=True)
        self.rows, self.groups = row_group.shape[0], (sizes, row_group)
        if any(total // width != self.rows for total in self.totals):
            raise ParameterError(f"every repetition must fill the plan's {self.rows} rows")

    @property
    def reads_blocks(self) -> bool:
        """Whether repetition r reads block r + 1 of each sender's samples,
        rather than the sender's one sample."""
        return self.blocks is not None


class LiteralSource:
    """Bit source that sign-quantizes real samples.

    `samples` is one (rows, d) array holding every user's samples as
    consecutive rows, user after user, and user k holds counts[k] of them;
    the row where each user's samples start, first[k], is derived here.  In
    repetition r a sender reads row first[k] when each user holds one sample,
    and the `block` rows from first[k] + r * block when the plan reads blocks;
    their scaled sum is written into a gathered float row, so such samples
    must be float64.  The trial's repetitions are quantized one after another.
    """

    def __init__(self, samples: np.ndarray, counts: np.ndarray):
        self.samples = samples
        self.first = np.cumsum(counts) - counts

    def draw(self, plan: Plan, specs: list[BrhtSpec | None]):
        """Each repetition's column counts over its full rows, and its bits."""
        streams = [self._bits(plan, r, spec) for r, spec in enumerate(specs)]
        return [bits[:plan.rows * plan.width].reshape(-1, plan.width).sum(axis=0, dtype=np.int64)
                for bits in streams], streams

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


def _check_samples(samples: np.ndarray, d: int) -> LiteralSource:
    """The literal source of users holding one sample each: the rows of an
    (n, d) array."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] != d:
        raise DimensionError(f"expected (n, {d}) samples, got shape {samples.shape}")
    return LiteralSource(samples, np.ones(samples.shape[0], np.int64))


def _user_rows(samples: list, m: np.ndarray, d: int, exact: bool) -> LiteralSource:
    """The literal source of per-user sample arrays, one per entry of m: every
    user's array is checked, silent users included, and then all are
    concatenated once as float64 rows.  User k's array must have d columns
    and m[k] rows, or at least m[k] rows when not `exact`; the source is
    given the actual row counts."""
    if len(samples) != len(m):
        raise DimensionError(f"{len(samples)} sample sets for {len(m)} users")
    arrays = [np.asarray(x) for x in samples]
    for k, x in enumerate(arrays):
        if x.ndim != 2 or x.shape[1] != d or x.shape[0] < m[k] or (exact and x.shape[0] != m[k]):
            raise DimensionError(f"user {k} samples must have shape ({m[k]}, {d}), got {x.shape}")
    return LiteralSource(np.concatenate(arrays, dtype=np.float64),
                         np.array([x.shape[0] for x in arrays], dtype=np.int64))


def run_plan(plan: Plan, seed: PublicSeed, source) -> tuple[Decision, Transcript]:
    """The trial body every protocol and every bit source share.

    The trial's transforms are drawn from the public seed first, in
    repetition order (a plan without transforms draws none, so its seed may
    be empty), and the transcript records the seed bits they consumed.  Then
    one call `source.draw(plan, specs)` returns each repetition's column
    counts over its full rows under its transform spec, one row per
    repetition, and each repetition's stream (an array, or a callable the
    transcript resolves on first read).  The referee reads only the counts,
    all repetitions' rows in one `collision_statistic_counts` call: a
    repetition rejects iff its collision statistic exceeds `plan.tau`, and
    amplified plans accept only if every repetition does.  The plan is the
    transcript's layout, so every trial of a plan shares its lengths and
    offsets.
    """
    before = seed.consumed
    specs = [None if plan.block is None else sample_brht(seed, plan.d, plan.block)
             for _ in plan.totals]
    ones, streams = source.draw(plan, specs)
    statistics = tuple(collision_statistic_counts(ones, plan.rows))
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


def sign_test_threshold(epsilon: float) -> float:
    """tau = (epsilon/sqrt(8))^2 / 2: the centralized test's threshold at the
    distance that sign quantization leaves of a Gaussian distance epsilon."""
    eps = epsilon * SIGN_QUANTIZE_DISTANCE_FACTOR
    return 0.5 * eps * eps


def private_coin_plan(n: int, d: int, ell: int, epsilon: float) -> Plan:
    """Plan of `private_coin_protocol` for n users."""
    _check_common(d, epsilon)
    ell_eff, group, n_sim = private_coin_layout(n, d, ell)
    active = n_sim * group
    return Plan(d=d, block=None, width=d, tau=sign_test_threshold(epsilon), n_users=n,
                runs=[(np.arange(active), np.full(active, ell_eff, dtype=np.int64))])


def private_coin_protocol(samples: np.ndarray, d: int, ell: int,
                          epsilon: float) -> tuple[Decision, Transcript]:
    """Each user quantizes its sample and sends one designated coordinate block.

    Groups of d/ell users yield one simulated binary sample each; the referee
    runs the centralized test at distance epsilon/sqrt(8).  Leftover users
    (an incomplete trailing group) stay silent.
    """
    source = _check_samples(samples, d)
    plan = private_coin_plan(source.samples.shape[0], d, ell, epsilon)
    return run_plan(plan, PublicSeed(np.zeros(0)), source)


# ---------------------------------------------------------------------------
# limited-public-coin protocol: 7 cohorts, fresh coarse rotation per cohort


def retained_scale(L: int, d: int) -> float:
    """sqrt(L / (100 d)): the share of a mean's norm that a kept prefix of L
    of the d rotated coordinates is assumed to retain, by RETENTION_FACTOR."""
    return np.sqrt(RETENTION_FACTOR * L / d)


def limited_coin_params(d: int, ell: int, s: int) -> tuple[int, int, int, float]:
    """(block length d_s, kept length L, effective ell, distance scale).

    d_s = d / 2^floor(s/28) (capped at 1), L = max(d_s, ell) by the keep
    rule of `mix_and_match_keep_length`, and the effective ell is the
    private-coin protocol's; the inner test runs at
    epsilon * sqrt(L / (100 d)).
    """
    d_s = seed_block_length(d, s)
    ell_eff = private_coin_layout(0, d, ell)[0]
    L = mix_and_match_keep_length(d, np.array([ell]), s)
    return d_s, L, ell_eff, retained_scale(L, d)


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
    source = _check_samples(samples, d)
    plan = limited_coin_plan(source.samples.shape[0], d, ell, epsilon, seed.remaining)
    return run_plan(plan, seed, source)


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
    source = _user_rows(samples, m, d, exact=True)
    return run_plan(hetero_samples_plan(m, d, ell, epsilon, seed.remaining), seed, source)


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
    tau = sign_test_threshold(epsilon * retained_scale(L, d))
    return Plan(d=d, block=d_s, width=L, tau=tau, n_users=shares.shape[0],
                runs=[(np.arange(shares.shape[0]), shares)] * REPETITIONS)


def hetero_comm_protocol(samples: np.ndarray, d: int, ells: np.ndarray, epsilon: float,
                         seed: PublicSeed) -> tuple[Decision, Transcript]:
    """One sample per user, budgets ells; 7 repetitions of: rotate with a fresh
    shared (d, d_s) transform, keep L = max(d_s, max ell) coordinates,
    quantize, and send a floor(ell_k/7)-bit wrap-around share.  The referee
    assembles full L-coordinate samples across users and tests at distance
    (epsilon/sqrt(8)) * sqrt(L/(100 d)).
    """
    source = _check_samples(samples, d)
    ells = np.asarray(ells, dtype=np.int64)
    if ells.shape != (source.samples.shape[0],):
        raise DimensionError(f"need one budget per user, got shape {ells.shape}")
    return run_plan(hetero_comm_plan(ells, d, epsilon, seed.remaining), seed, source)


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
    ells_o = _clipped_budgets(ells[order], L)
    group = np.repeat(np.arange(K), sizes)
    budget = np.bincount(group, weights=ells_o, minlength=K)
    if np.any(budget < need):
        raise InfeasiblePartitionError(
            f"group budget {int(budget[budget < need][0])} is below the requirement {need}")
    first = np.cumsum(sizes) - sizes
    tau, blocks = _pairwise_referee(np.minimum.reduceat(ms[order], first), need, d, epsilon)

    # In group order, user k fills positions [start, end) of its group's
    # 7L-position stream; position p is coordinate p mod L of the user's
    # repetition-(p div L) vector.  Every group's clipped budget reaches 7L,
    # so its users fill the stream exactly: each repetition's stream holds L
    # bits per group.  The runs, one masked pass per repetition, are built
    # only when read.
    cum = np.cumsum(ells_o) - ells_o
    start = np.minimum(cum - cum[first][group], need)
    end = np.minimum(start + ells_o, need)
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = end - start

    def runs():
        out = []
        for r in range(REPETITIONS):
            sent = np.minimum(end, (r + 1) * L) - np.maximum(start, r * L)
            meets = sent > 0
            out.append((order[meets], sent[meets]))
        return out

    return Plan(runs, n, d=d, block=L, width=L, tau=tau, blocks=blocks, lengths=lengths,
                totals=(K * L,) * REPETITIONS)


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
    ms, ells = np.array([[u.m for u in users], [u.ell for u in users]], dtype=np.int64)
    source = _user_rows(samples, ms, d, exact=False)
    plan = mix_and_match_plan(ms, ells, d, epsilon, seed.remaining, partition)
    return run_plan(plan, seed, source)
