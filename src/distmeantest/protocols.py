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
length, threshold, and the layout, which every plan states in runs of alike
users (a `Layout`): each repetition's stream length, the most bits each
run's users send, and a builder of each repetition's runs of senders, from
which the per-user bit counts and the transcript offsets are derived only
when read.  It also states the flip-probability groups of the referee's
rows, as runs of rows, and whether repetition r reads block r + 1 of each
sender's samples or the sender's one sample.  A *bit source* returns, for a
whole trial, each repetition's column counts over the referee's full rows
and its stream of sign bits of the rotated, block-aggregated data of the
senders at their rotated coordinates.  There are two: `LiteralSource`
quantizes real samples, and `LawSource` draws the counts from their exact
law and the streams only on demand.  That law is stated once, by
`flip_probs` from the plan's groups and the trial's transforms, beside
`sign_flip_prob`, the law of one quantized coordinate.  The *trial body*
`run_plan` draws all of the trial's transforms from the public seed, calls
the source once, referees the counts and hands the repetition streams with
the plan, as their layout, to the `Transcript`, which builds the per-user
messages only when they are first read.  The public `*_protocol` functions
are plan + literal source + trial body.

Budget flooring policy: coordinate-block sizes (private/limited `ell`, the
per-repetition share of the heterogeneous-samples protocol, which doubles as
a transform block length) are floored to powers of two; wrap-around stream
segments (hetero-comm, mix-and-match) use exact integer shares since index
arithmetic needs no alignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .binary_test import (ACCEPT, REJECT, bpmt_threshold, check_epsilon, check_referee_size,
                          check_threshold, collision_statistic_counts)
from .brht import BrhtSpec, RETENTION_FACTOR, brht_apply, pow2_floor, sample_brht
from .errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    DimensionError,
    InfeasiblePartitionError,
    InsufficientPopulationError,
    ParameterError,
    check_at_least,
)
from .hadamard import check_pow2
from .randomness import MAX_FIELD_DEGREE, POLY_COEFFICIENTS, PublicSeed

__all__ = [
    "UserSpec",
    "Decision",
    "Layout",
    "Transcript",
    "sign_quantize",
    "sign_flip_prob",
    "flip_probs",
    "aggregate_block",
    "wraparound_coords",
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
        check_at_least(self.m, 1, "user sample count")
        check_at_least(self.ell, 1, "user bit budget")


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
    and its message is its segments in repetition order.  A layout states
    `totals` (each stream's length) and `bounds`, runs of alike users as
    (bits, count): count[i] consecutive users send at most bits[i] bits
    each.  The runs come from `build_runs`, a zero-argument callable (the
    idiom of `Transcript`'s deferred streams), called on the first read of
    `runs`, `lengths` or `offsets`.  From the runs come `lengths` (each of
    the n_users users' bits, silent users included) and the transcript
    `offsets` (their cumulative sum from 0), read-only, because every
    trial's transcript shares them; layouts compare by identity.  Runs are
    rejected unless they give the stated totals, their per-user lengths sum
    to those totals (a run naming one user twice does not) and no user
    sends more than its bound.
    A reader of totals and bounds alone, such as a law-path trial and its
    audit, never builds the runs or any other array of one entry per user.
    """

    def __init__(self, build_runs, n_users: int, totals, bounds):
        self.n_users = n_users
        self._build_runs, self._runs, self._lengths = build_runs, None, None
        self.totals = tuple(int(total) for total in totals)
        self.bounds = tuple(np.asarray(values, dtype=np.int64) for values in bounds)

    @property
    def runs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._runs is None:
            runs = self._build_runs()
            lengths, totals = _lengths_and_totals(runs, self.n_users)
            if (totals != self.totals or int(lengths.sum()) != sum(totals)
                    or np.any(lengths > np.repeat(*self.bounds))):
                raise ParameterError("runs do not keep to the layout's stated per-user lengths "
                                     "and stream totals")
            lengths.flags.writeable = False
            self._runs, self._lengths = runs, lengths
        return self._runs

    @property
    def lengths(self) -> np.ndarray:
        self.runs       # derives them
        return self._lengths

    @cached_property
    def offsets(self) -> np.ndarray:
        offsets = np.concatenate([[0], np.cumsum(self.lengths)])
        offsets.flags.writeable = False
        return offsets


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
    transcript of one plan; they are exact integers, never padded.  The
    total is the sum of the layout's stream totals, so reading it builds no
    per-user array; the offsets and lengths are built on their first read
    (see `Layout`).  On the first read of `data` the streams are resolved
    in repetition order and the user-major bits (user k's message at
    data[offsets[k]:offsets[k+1]]) are built from them and kept: a user's
    message is its per-repetition segments, in repetition order.  Counts
    and lengths never build them.
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
        return sum(self.layout.totals)

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


# ---------------------------------------------------------------------------
# encoding / assembly primitives


def sign_quantize(x: np.ndarray) -> np.ndarray:
    """1 where a coordinate is strictly positive, else 0 (any shape)."""
    return (np.asarray(x) > 0).astype(np.uint8)


def sign_flip_prob(mu):
    """P(coordinate with mean mu quantizes to 1) = 0.5 * erfc(-mu/sqrt(2)),
    elementwise over a scalar or an array of means: `math.erfc` of each
    value, read into a float64 array of the input's shape, so a scalar or
    0-d input gives a scalar."""
    z = -np.asarray(mu, dtype=np.float64) / math.sqrt(2.0)
    p = np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size).reshape(z.shape)
    p *= 0.5
    return p[()]


def aggregate_block(samples: np.ndarray, t: int, block: int) -> np.ndarray:
    """Scaled sum of the t-th disjoint block of `block` samples (t is 1-based).

    samples has shape (..., m, d); returns shape (..., d) equal to
    (1/sqrt(block)) * sum of samples[(t-1)*block : t*block].
    """
    samples = np.asarray(samples)
    if samples.ndim < 2:
        raise DimensionError(f"expected (..., m, d) samples, got shape {samples.shape}")
    m = samples.shape[-2]
    check_at_least(block, 1, "block size")
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
    int64.  The users are then walked as runs of one user each, by
    `_walk_runs`, the walk a mix-and-match plan makes over its population's
    runs.
    """
    order, _, _, count, closes = _walk_runs(ms, _clipped_budgets(ells, L),
                                            np.ones(ms.shape, np.int64), L)
    return order, _group_sizes(closes, np.cumsum(count) - count, order.shape[0])


def _walk_runs(ms: np.ndarray, budgets: np.ndarray, count: np.ndarray, L: int):
    """The greedy walk over runs of users, count[i] users of ms[i] samples
    and budgets[i] clipped bits each: the runs are taken in stable
    descending-m order, `perm`, and their neighbours of equal (m, budget)
    merged.  Returns (perm, m, budgets, count) of the merged runs, and the
    walk's `closes` over them."""
    perm = np.argsort(-ms, kind="stable")
    start = run_starts(ms[perm], budgets[perm])
    m, v, c = ms[perm][start], budgets[perm][start], np.add.reduceat(count[perm], start)
    return perm, m, v, c, _greedy_walk(v, c, L)


def run_starts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Where each run of equal (a[i], b[i]) neighbours starts."""
    return np.flatnonzero(np.r_[a.size > 0, (a[1:] != a[:-1]) | (b[1:] != b[:-1])])


def _greedy_walk(budgets: np.ndarray, count: np.ndarray, L: int) -> np.ndarray:
    """The greedy groups over runs of users taken in group order, count[i]
    users of budgets[i] bits each.

    In a run of c users of v bits, the open group, holding `held` bits,
    closes at the run's t = ceil((7L - held) / v)-th user and every later
    group k = ceil(7L / v) users on: q groups in all.  So the loop runs once
    per run, not once per user.  Returns (i, t, k, q) of each run in which
    groups close, as the rows of a (4, closing runs) array; the leftover
    users after the last close join the last group.  Raises
    InfeasiblePartitionError when the runs hold fewer than 7L bits.
    """
    check_at_least(L, 1, "L")
    need, held, closes = REPETITIONS * L, 0, []
    for i, (v, c) in enumerate(zip(budgets.tolist(), count.tolist())):
        if held + v * c < need:
            held += v * c
            continue
        t, k = -((held - need) // v), -(-need // v)
        q = (c - t) // k + 1
        closes += i, t, k, q
        held = (c - t) % k * v
    if not closes:
        raise InfeasiblePartitionError(
            f"population holds {held} message bits, below the per-group requirement {need}")
    return np.array(closes, dtype=np.int64).reshape(-1, 4).T


def _group_sizes(closes: np.ndarray, first: np.ndarray, n: int) -> np.ndarray:
    """Each greedy group's size, from the walk's `closes` over runs whose
    first users sit at positions `first` of the n users in group order."""
    i, t, k, q = closes
    j = np.arange(q.sum()) - np.repeat(np.cumsum(q) - q, q)
    ends = np.repeat(first[i] + t, q) + np.repeat(k, q) * j
    ends[-1] = n
    return np.diff(ends, prepend=0)


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
    check_at_least(s, 0, "seed budget")
    return d >> min(s // SEED_BITS_PER_HALVING, int(d).bit_length() - 1)


def _transform_bits(d: int, block: int) -> int:
    """The public bits that seven (d, block) transforms draw."""
    return SEED_BITS_PER_HALVING * ((d // block).bit_length() - 1)


def _check_transforms(d: int, block: int, s: int) -> None:
    """Reject seven (d, block) transforms that the four-wise sign field or the
    s remaining seed bits cannot supply, before any seed bit is drawn."""
    signs = d // block
    if signs > MAX_SIGN_BLOCKS:
        raise ParameterError(
            f"d={d} with s={s} needs {signs} four-wise signs per transform; "
            f"the GF(2^{MAX_FIELD_DEGREE}) sign field caps this at {MAX_SIGN_BLOCKS}")
    need = _transform_bits(d, block)
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

    `blocks` is given by the plans whose users aggregate samples, as runs of
    rows (sizes, count): the senders of count[i] consecutive rows sum blocks
    of sizes[i] samples, and repetition r reads block r + 1 of each sender's
    samples.  Without it each user holds one sample, which every repetition
    reads; `reads_blocks` states which.  Rows whose senders share a block
    size share their bits' law: `group_sizes` holds the block size of each
    flip-probability group (one group of block size 1 when each user holds
    one sample) and `group_rows` counts each group's full rows, the same in
    every repetition; both are derived from the runs.  The per-row arrays
    are built only when read: `blocks`, each row's block size, and `groups`,
    (group_sizes, the group of each row).

    The plan is the layout of every transcript it produces, stated as
    `Layout` states it: every protocol's plan states its totals and bounds
    per run and passes a builder of its runs of senders, so building a plan
    builds no array of one entry per user.  `seed_bits` is what the trial's
    transforms draw from the public seed (0 without transforms), so a
    trial's seed needs no more bits.  A repetition whose referee would get
    fewer than two rows, or more than its int64 sum holds
    (`check_referee_size`), or a threshold that is not finite and >= 0, is
    rejected here, before any array of one entry per row is built and before
    any seed bit is drawn.
    """

    def __init__(self, build_runs, n_users: int, totals, bounds, *, d: int, block: int | None,
                 width: int, tau: float, blocks=None):
        check_threshold(tau)
        super().__init__(build_runs, n_users, totals, bounds)
        self.d, self.block, self.width, self.tau = d, block, width, float(tau)
        for r, total in enumerate(self.totals):
            if total // width < 2:
                raise InsufficientPopulationError(
                    f"repetition {r} sends {total} bits, which fill "
                    f"{total // width} full {width}-coordinate samples; "
                    f"the referee needs 2")
            check_referee_size(total // width, width)
        self.rows = self.totals[0] // width
        if any(total // width != self.rows for total in self.totals):
            raise ParameterError(f"every repetition must fill the plan's {self.rows} rows")
        self.reads_blocks = blocks is not None
        sizes, count = ((np.asarray(values, dtype=np.int64) for values in blocks)
                        if self.reads_blocks else (np.ones(1, np.int64), np.array([self.rows])))
        if int(count.sum()) != self.rows:
            raise ParameterError(f"block sizes are given for {int(count.sum())} rows, "
                                 f"the streams fill {self.rows}")
        self.group_sizes, group = np.unique(sizes, return_inverse=True)
        self.group_rows = np.zeros(self.group_sizes.shape[0], dtype=np.int64)
        np.add.at(self.group_rows, group, count)
        self._row_runs = sizes, group, count

    @cached_property
    def blocks(self) -> np.ndarray | None:
        sizes, _, count = self._row_runs
        return np.repeat(sizes, count) if self.reads_blocks else None

    @cached_property
    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        _, group, count = self._row_runs
        return self.group_sizes, np.repeat(group, count)

    @property
    def seed_bits(self) -> int:
        """The public bits the trial's transforms draw, 0 without transforms."""
        return 0 if self.block is None else _transform_bits(self.d, self.block)


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
        self.samples, self.first = samples, np.cumsum(counts) - counts

    def draw(self, plan: Plan, spec: BrhtSpec | None):
        """Each repetition's column counts over its full rows, and its bits;
        repetition r reads row r of the trial's stacked transforms."""
        streams = [self._bits(plan, r, None if spec is None else
                              BrhtSpec(spec.d, spec.L, spec.b, spec.signs[r]))
                   for r in range(len(plan.totals))]
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
    """The literal source of n >= 1 users holding one sample each: the rows
    of an (n, d) array."""
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[1] != d:
        raise DimensionError(f"expected (n, {d}) samples, got shape {samples.shape}")
    check_at_least(samples.shape[0], 1, "population size")
    return LiteralSource(samples, np.ones(samples.shape[0], np.int64))


def _user_rows(samples: list, m: np.ndarray, d: int, exact: bool) -> LiteralSource:
    """The literal source of per-user sample arrays, one per entry of m, of
    at least one user: every user's array is checked, silent users included,
    and then all are concatenated once as float64 rows.  User k's array must
    have d columns and m[k] rows, or at least m[k] rows when not `exact`; the
    source is given the actual row counts."""
    if len(samples) != len(m):
        raise DimensionError(f"{len(samples)} sample sets for {len(m)} users")
    check_at_least(len(m), 1, "population size")
    arrays = [np.asarray(x) for x in samples]
    for k, x in enumerate(arrays):
        if x.ndim != 2 or x.shape[1] != d or x.shape[0] < m[k] or (exact and x.shape[0] != m[k]):
            raise DimensionError(f"user {k} samples must have shape ({m[k]}, {d}), got {x.shape}")
    return LiteralSource(np.concatenate(arrays, dtype=np.float64),
                         np.array([x.shape[0] for x in arrays], dtype=np.int64))


def flip_probs(plan: Plan, mu: np.ndarray, spec: BrhtSpec | None) -> np.ndarray:
    """The law of the bits the referee reads, for the padded (d,) mean mu
    under the trial's stacked transforms (None for a plan without them):
    p[r, g, c] is the probability that coordinate c of a row of
    flip-probability group g is 1 in repetition r, of shape (repetitions,
    groups, width).

    A quantized rotated coordinate is 1 with probability Phi(mu_rot[c]),
    where mu_rot is the rotated mean, scaled by sqrt(block) after a block of
    samples is aggregated (block 1 when each user holds one sample):
    rotations are orthogonal, so rotated samples are Gaussian with identity
    covariance around mu_rot, and distinct bits of one repetition come from
    distinct (user, coordinate) pairs, so the rows of one group are i.i.d.
    The mean is rotated once: one `brht_apply` call rotates it by the
    stacked transforms, giving a (repetitions, width) array whose row r is
    the mean under transform r, and one `sign_flip_prob` call gives every
    flip probability.
    """
    mu_rot = (np.broadcast_to(mu, (len(plan.totals), plan.d)) if spec is None
              else brht_apply(spec, mu, keep=plan.width))
    return sign_flip_prob(np.sqrt(plan.group_sizes)[:, None] * mu_rot[:, None, :])


class LawSource:
    """Bit source that draws a trial's column counts from their exact law,
    `flip_probs`, and each repetition's transmitted bits only when the
    transcript is read.

    The rows of one flip-probability group are i.i.d., so a column's count
    over them is one binomial draw; all repetitions' counts are one binomial
    call over the (repetitions, groups, width) probabilities.  Each stream is
    drawn from the exact conditional law given its counts: in each group and
    column the ones sit on a uniformly random subset of the group's rows,
    and a trailing partial row (hetero_comm only) is drawn bit by bit.
    Repetitions are drawn independently: exact where they use disjoint
    samples, which holds for every protocol but hetero_comm.

    The streams, the bits a law-path transcript's `data`, `message` and
    `serialize` give, exist only to make the law path checkable against the
    literal one.  Nothing in this package, its command line or bench/ reads
    them (the verdict, the records and the audit read counts and lengths),
    so no feature should be built on them.
    """

    def __init__(self, mu: np.ndarray, rng: np.random.Generator):
        self.mu, self.rng = mu, rng

    def draw(self, plan: Plan, spec: BrhtSpec | None):
        """Each repetition's column counts over its full rows, and a callable
        per repetition that draws its stream given them."""
        p = flip_probs(plan, self.mu, spec)
        # one draw per repetition, group and column, in that order
        counts = self.rng.binomial(plan.group_rows[:, None], p)
        return counts.sum(axis=1), [lambda r=r: self._stream(plan, r, counts[r], p[r])
                                    for r in range(len(plan.totals))]

    def _stream(self, plan: Plan, r: int, counts: np.ndarray, p: np.ndarray) -> np.ndarray:
        full = np.empty((plan.rows, plan.width), dtype=np.uint8)
        for g, n_g in enumerate(plan.group_rows.tolist()):
            ones_first = np.arange(n_g)[:, None] < counts[g]
            full[plan.groups[1] == g] = self.rng.permuted(ones_first, axis=0)
        rest = plan.totals[r] - full.size
        return np.concatenate([full.reshape(-1), self.rng.random(rest) < p[0, :rest]])


def run_plan(plan: Plan, seed: PublicSeed, source) -> tuple[Decision, Transcript]:
    """The trial body every protocol and every bit source share.

    The trial's transforms are drawn from the public seed first, in
    repetition order, as one `sample_brht` spec whose signs row r is
    repetition r's transform (a plan without transforms draws none and
    passes None, so its seed may be empty), and the transcript records the
    seed bits they consumed.  Then one call `source.draw(plan, spec)`
    returns each repetition's column counts over its full rows under its
    transform, one row per repetition, and each repetition's stream (an
    array, or a callable the transcript resolves on first read).  The
    referee reads only the counts, all repetitions' rows in one
    `collision_statistic_counts` call: a repetition rejects iff its
    collision statistic exceeds `plan.tau`, and amplified plans accept only
    if every repetition does.  The plan is the transcript's layout, so
    every trial of a plan shares its lengths and offsets.
    """
    spec = (None if plan.block is None
            else sample_brht(seed, plan.d, plan.block, len(plan.totals)))
    ones, streams = source.draw(plan, spec)
    statistics = tuple(collision_statistic_counts(ones, plan.rows))
    transcript = Transcript(plan, streams, 0 if spec is None else spec.bits_consumed)
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
    """tau = (epsilon/sqrt(8))^2 / 2 = epsilon^2 / 16: the centralized test's
    threshold at the distance that sign quantization leaves of a Gaussian
    distance epsilon.  The squared distance is formed as epsilon^2 / 8, not by
    squaring a rounded epsilon/sqrt(8), so tau(1) is exactly 1/16."""
    return bpmt_threshold(epsilon * epsilon / 8)


def private_coin_plan(n: int, d: int, ell: int, epsilon: float) -> Plan:
    """Plan of `private_coin_protocol` for n users."""
    _check_common(d, epsilon)
    return _cohorts_plan(n, 1, d, ell, d=d, block=None, tau=sign_test_threshold(epsilon))


def _cohorts_plan(n: int, cohorts: int, width: int, ell: int, **plan) -> Plan:
    """The plan of `cohorts` consecutive cohorts of n // cohorts users, each
    laid out as the private-coin protocol over `width` coordinates with bit
    budget ell: a cohort's first n_sim * group users send ell_eff bits each,
    in one run per cohort, and the users past them stay silent."""
    size = n // cohorts
    ell_eff, group, n_sim = private_coin_layout(size, width, ell)
    active = n_sim * group

    def runs():
        sent = np.full(active, ell_eff, dtype=np.int64)
        return [(np.arange(active) + r * size, sent) for r in range(cohorts)]
    return Plan(runs, n, (active * ell_eff,) * cohorts, ([ell_eff], [n]), width=width, **plan)


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
    d_s, L, ell_eff, scale = limited_coin_params(d, ell, s)
    _check_transforms(d, d_s, s)
    return _cohorts_plan(n, REPETITIONS, L, ell_eff, d=d, block=d_s,
                         tau=sign_test_threshold(epsilon * scale))


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


def hetero_pair_weight(m: np.ndarray, block_floor: bool = True, counts=None) -> float:
    """N = sum over ordered user pairs of sqrt(w_k1 * w_k2), w = floor(m/7)
    (or w = m when block_floor is False, the variant maximized by balanced
    allocations).  m holds one entry per user or, with `counts`, per run of
    counts[i] users alike."""
    m = np.asarray(m, dtype=np.int64)
    check_at_least(int(m.min(initial=1)), 1, "user sample count")
    w = (m // REPETITIONS).astype(np.float64) if block_floor else m.astype(np.float64)
    c = np.ones(m.shape) if counts is None else np.asarray(counts, dtype=np.float64)
    return float((c * np.sqrt(w)).sum() ** 2 - (c * w).sum())


def hetero_threshold(epsilon: float, ell: int, N: float, d: int, n: int) -> float:
    """tau = ((epsilon/80) * sqrt(ell*N / (7*d*n*(n-1))))^2 / 2."""
    eps_prime = HETERO_DISTANCE_FACTOR * epsilon * np.sqrt(
        ell * N / (REPETITIONS * d * n * (n - 1.0)))
    return bpmt_threshold(eps_prime * eps_prime)


def _pairwise_referee(m: np.ndarray, count: np.ndarray, ell: int, d: int, epsilon: float
                      ) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """(threshold, block sizes as runs) of the heterogeneous-samples referee
    over runs of senders, count[i] of them holding m[i] samples, each sender
    with ell message bits: the senders of a run aggregate blocks of
    floor(m[i]/7) samples."""
    senders = int(count.sum())
    if senders < 2:
        raise DegenerateInputError(f"pairwise referee needs >= 2 senders, got {senders}")
    if np.any(m < REPETITIONS):
        raise DegenerateInputError("every sender needs at least 7 samples")
    tau = hetero_threshold(epsilon, ell, hetero_pair_weight(m, counts=count), d, senders)
    return tau, (m // REPETITIONS, count)


def _counts(values: np.ndarray, count) -> np.ndarray:
    """The users of each entry of a builder's values: count, or one each."""
    return np.ones(values.shape, np.int64) if count is None else np.asarray(count, np.int64)


def hetero_samples_plan(m: np.ndarray, d: int, ell: int, epsilon: float, s: int,
                        count=None) -> Plan:
    """Plan of `hetero_samples_protocol` for sample counts m, one per user or,
    with `count`, one per run of count[i] users, and s seed bits.  Each user
    fills one row of each repetition, so the rows' block sizes are runs
    like the users'."""
    _check_common(d, epsilon)
    m = np.asarray(m, dtype=np.int64)
    count = _counts(m, count)
    n = int(count.sum())
    tau, blocks = _pairwise_referee(m, count, ell, d, epsilon)
    share = hetero_share(ell, d)
    _check_transforms(d, share, s)
    return Plan(lambda: [(np.arange(n), np.full(n, share, dtype=np.int64))] * REPETITIONS, n,
                d=d, block=share, width=share, tau=tau, blocks=blocks,
                totals=(n * share,) * REPETITIONS,
                bounds=(np.full(m.shape, REPETITIONS * share), count))


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
    check_at_least(int(ells.min(initial=1)), 1, "user bit budget")
    L = mix_and_match_keep_length(d, ells, s)
    return seed_block_length(d, s), L, np.minimum(ells // REPETITIONS, L)


def hetero_comm_plan(ells: np.ndarray, d: int, epsilon: float, s: int, count=None) -> Plan:
    """Plan of `hetero_comm_protocol` for budgets ells, one per user or, with
    `count`, one per run of count[i] users, and s seed bits."""
    _check_common(d, epsilon)
    d_s, L, shares = hetero_comm_params(d, ells, s)
    count = _counts(shares, count)
    _check_transforms(d, d_s, s)
    tau = sign_test_threshold(epsilon * retained_scale(L, d))
    n, total = int(count.sum()), sum(a * b for a, b in zip(shares.tolist(), count.tolist()))
    return Plan(lambda: [(np.arange(n), np.repeat(shares, count))] * REPETITIONS, n,
                d=d, block=d_s, width=L, tau=tau, totals=(total,) * REPETITIONS,
                bounds=(REPETITIONS * shares, count))


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
                       partition: list[list[int]] | None = None, count=None) -> Plan:
    """Plan of `mix_and_match_protocol` for users with sample counts ms and
    bit budgets ells, one pair per user or, with `count`, per run of
    count[i] users alike, and s seed bits; the groups are `partition` when
    given (lists of user indices), else `greedy_partition`'s.

    The greedy groups come from one `_greedy_walk` over the runs: the users
    in group order are the runs in stable descending-m order, walked as runs
    of equal (m, clipped budget).  Each group's minimum m is then the m of
    the run where it closes (for the last group, which takes in the users
    left after it, the m of the last run), so the threshold and the rows'
    block sizes are stated per run, and the per-user group order, group
    sizes and runs of senders are built only when the runs are read.
    """
    _check_common(d, epsilon)
    ms, ells = np.asarray(ms, dtype=np.int64), np.asarray(ells, dtype=np.int64)
    count = _counts(ms, count)
    n = int(count.sum())
    L = mix_and_match_keep_length(d, ells, s)
    _check_transforms(d, L, s)
    need, budgets = REPETITIONS * L, _clipped_budgets(ells, L)
    if partition is None:
        perm, m, v, c, closes = _walk_runs(ms, budgets, count, L)
        i, _, _, q = closes
        # rows[j] consecutive groups have minimum m mins[j]
        mins, rows = np.r_[m[i], m[-1]], np.r_[q[:-1], q[-1] - 1, 1]

        def groups():
            # run perm[j]'s users, from its first user on, hold the group
            # positions from `at[j]` on
            first, at = np.cumsum(count) - count, np.cumsum(count[perm]) - count[perm]
            order = np.arange(n) + np.repeat(first[perm] - at, count[perm])
            return order, _group_sizes(closes, np.cumsum(c) - c, n), np.repeat(v, c)
    else:
        sizes = np.array([len(group) for group in partition], dtype=np.int64)
        order = np.array([i for group in partition for i in group], dtype=np.int64)
        if order.shape[0] != n or not np.array_equal(np.sort(order), np.arange(n)):
            raise ParameterError("partition must cover every user exactly once")
        K, user_budgets = sizes.shape[0], np.repeat(budgets, count)[order]
        budget = np.bincount(np.repeat(np.arange(K), sizes), weights=user_budgets, minlength=K)
        if np.any(budget < need):
            raise InfeasiblePartitionError(
                f"group budget {int(budget[budget < need][0])} is below the requirement {need}")
        first = np.cumsum(sizes) - sizes
        mins, rows = np.minimum.reduceat(np.repeat(ms, count)[order], first), np.ones(K, np.int64)

        def groups():
            return order, sizes, user_budgets
    tau, blocks = _pairwise_referee(mins[rows > 0], rows[rows > 0], need, d, epsilon)
    return Plan(lambda: _mix_runs(*groups(), L), n, d=d, block=L, width=L, tau=tau,
                blocks=blocks, totals=(int(rows.sum()) * L,) * REPETITIONS, bounds=(budgets, count))


def _mix_runs(order: np.ndarray, sizes: np.ndarray, budgets: np.ndarray, L: int) -> list:
    """Each repetition's runs of a mix-and-match layout, given the users in
    group order, the group sizes and the users' clipped budgets in group
    order.

    User k fills positions [start, end) of its group's 7L-position stream;
    position p is coordinate p mod L of the user's repetition-(p div L)
    vector.  Every group's clipped budget reaches 7L, so its users fill the
    stream exactly: each repetition's stream holds L bits per group.  One
    masked pass per repetition finds its senders.
    """
    need = REPETITIONS * L
    group = np.repeat(np.arange(sizes.shape[0]), sizes)
    cum = np.cumsum(budgets) - budgets
    start = np.minimum(cum - cum[np.cumsum(sizes) - sizes][group], need)
    end = np.minimum(start + budgets, need)
    out = []
    for r in range(REPETITIONS):
        sent = np.minimum(end, (r + 1) * L) - np.maximum(start, r * L)
        meets = sent > 0
        out.append((order[meets], sent[meets]))
    return out


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
