"""Reference implementations that only the tests read.

Each one restates, in the slowest and plainest way, something the package
computes fast or lays out once: the dense Hadamard product, scalar GF(2^k)
arithmetic, the wrap-around coordinates and the referee-side assembly
they give, the sign quantization's distance loss, layouts and plans of
given runs, zeroed transcripts of given per-user lengths, a literal trial
that draws and reads every user's samples as one array, a trial's streams
as numpy derives a child seed, and the law of a trial's bits coordinate by
coordinate.  No protocol, harness or command path runs them, so they live
here rather than in `distmeantest`; `test_oracles_stay_out.py` keeps them
out of the package.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from distmeantest.brht import BrhtSpec, brht_apply
from distmeantest.errors import DimensionError, InsufficientPopulationError, ParameterError
from distmeantest.hadamard import check_pow2, hadamard_matrix
from distmeantest.harness import _trial_stream, gen_gaussian_samples, make_mean
from distmeantest.protocols import (Layout, Plan, Transcript, aggregate_block, sign_flip_prob,
                                    sign_quantize)
from distmeantest.randomness import _IRREDUCIBLE, MAX_FIELD_DEGREE, PublicSeed


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


def gf_mul(a: int, b: int, k: int) -> int:
    """Carry-less multiply in GF(2^k), reduced by the sign table's polynomial."""
    if k not in _IRREDUCIBLE:
        raise ParameterError(f"field degree must be in 1..{MAX_FIELD_DEGREE}, got {k}")
    poly = _IRREDUCIBLE[k]
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a >> k:
            a ^= poly
    return acc


def gf_poly_eval(coeffs: tuple[int, ...], x: int, k: int) -> int:
    """Horner evaluation of sum_i coeffs[i] * x^i over GF(2^k)."""
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, x, k) ^ c
    return acc


# Gaussian -> binary distance loss of sign quantization: the sign test runs
# the centralized test at epsilon * SIGN_QUANTIZE_DISTANCE_FACTOR, which
# `sign_test_threshold` states as tau = epsilon^2 / 16
SIGN_QUANTIZE_DISTANCE_FACTOR = 1.0 / np.sqrt(8.0)


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


def layout_of(runs: list, n_users: int, kind=Layout, **fields) -> Layout:
    """A `kind` layout of the given runs, read at once: its totals are the
    runs' stream lengths and each user's bound is its exact length over the
    runs.  `plan_of` passes `Plan` and the plan's fields."""
    lengths = np.zeros(n_users, dtype=np.int64)
    for users, sent in runs:
        np.add.at(lengths, users, sent)
    layout = kind(lambda: runs, n_users, [int(np.sum(sent)) for _, sent in runs],
                  (lengths, np.ones(n_users, dtype=np.int64)), **fields)
    layout.runs
    return layout


def plan_of(runs: list, n_users: int, **fields) -> Plan:
    """The `Plan` counterpart of `layout_of`."""
    return layout_of(runs, n_users, Plan, **fields)


def transcript_from_lengths(lengths: np.ndarray, public_bits_used: int = 0) -> Transcript:
    """A zeroed transcript with the given per-user bit counts: the one-run
    layout in which every user sends its whole message."""
    lengths = np.asarray(lengths, dtype=np.int64)
    layout = layout_of([(np.arange(lengths.shape[0]), lengths)], lengths.shape[0])
    return Transcript(layout, [np.zeros(layout.totals[0], dtype=np.uint8)], public_bits_used)


def whole_array_trial_inputs(config, mean, trial: int, master_seed: int):
    """The public seed bits and the samples of a literal `run_trial`, the
    samples drawn in one `gen_gaussian_samples` call as one (sum m, d)
    array, every user's rows after the previous user's."""
    plan, key = config.plan, (master_seed, mean.mode, trial)
    mu = np.zeros(plan.d)
    mu[:config.d] = make_mean(mean, config.d, _trial_stream(*key, "mean")
                              if mean.mode == "random_direction" else None)
    bits = (PublicSeed.random(plan.seed_bits, _trial_stream(*key, "public")).bits
            if plan.seed_bits else np.zeros(0, np.uint8))
    return bits, gen_gaussian_samples(mu, int(config.ms().sum()), _trial_stream(*key, "data"))


def whole_array_source(samples: np.ndarray, counts: np.ndarray):
    """A bit source over one (rows, d) array of every user's samples, which
    it reads whole: each repetition gathers its senders' rows (the scaled
    sum of each block where blocks are longer than one sample), rotates
    them in one call and sign-quantizes them at the sent (row, coordinate)
    pairs.  Block plans need float64 samples."""
    first = np.cumsum(counts) - counts

    def whole_array_stream(plan, r, spec):
        users, lengths = plan.runs[r]
        run_of, coords = wraparound_coords(lengths, plan.width)
        rows = first[users]
        if plan.reads_blocks:
            block = plan.blocks[(np.cumsum(lengths) - lengths) // plan.width]
            rows = rows + r * block
            x = samples[rows]
            for b in np.unique(block[block > 1]).tolist():
                senders = np.flatnonzero(block == b)
                x[senders] = aggregate_block(samples[rows[senders, None] + np.arange(b)], 1, b)
            picked = run_of
        else:
            lo = int(rows.min())
            x = samples[lo:int(rows.max()) + 1]
            picked = rows[run_of] - lo
        rotated = x if spec is None else brht_apply(
            BrhtSpec(spec.d, spec.L, spec.b, spec.signs[r]), x, keep=plan.width)
        return sign_quantize(rotated[picked, coords])

    def whole_array_draw(plan, spec):
        streams = [whole_array_stream(plan, r, spec) for r in range(len(plan.totals))]
        return [stream[:plan.rows * plan.width].reshape(-1, plan.width).sum(axis=0, dtype=np.int64)
                for stream in streams], streams
    return SimpleNamespace(draw=whole_array_draw)


def trial_stream_state(master_seed: int, mode_index: int, trial: int, stream_index: int) -> dict:
    """The PCG64 state of a trial's stream as its derivation states it:
    child `stream_index` of `SeedSequence(master_seed, spawn_key=(mode_index,
    trial))`, that is the seed sequence of spawn key (mode_index, trial,
    stream_index)."""
    return np.random.PCG64(np.random.SeedSequence(
        master_seed, spawn_key=(mode_index, trial, stream_index))).state


def flip_probs_oracle(plan, mu: np.ndarray, spec) -> np.ndarray:
    """The law of a trial's bits, one coordinate at a time: p[r, g, c] is
    `sign_flip_prob` of sqrt(block of group g) times coordinate c of the mean
    under transform r (the mean itself for a plan without transforms)."""
    out = np.empty((len(plan.totals), len(plan.group_sizes), plan.width))
    for r in range(out.shape[0]):
        rotated = mu if spec is None else brht_apply(
            BrhtSpec(spec.d, spec.L, spec.b, spec.signs[r]), mu, keep=plan.width)
        for g in range(out.shape[1]):
            for c in range(plan.width):
                out[r, g, c] = sign_flip_prob(math.sqrt(plan.group_sizes[g]) * rotated[c])
    return out
