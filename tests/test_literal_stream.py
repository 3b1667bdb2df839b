"""The literal path reads its samples a chunk at a time: every trial equals
the one that draws and reads all of them as one array, and a trial holds a
bounded share of them."""

import itertools
import tracemalloc

import numpy as np
import pytest

from distmeantest import (
    MEAN_MODES,
    MeanSpec,
    PopulationConfig,
    PublicSeed,
    UserRuns,
    UserSpec,
    hetero_comm_protocol,
    hetero_samples_protocol,
    limited_coin_protocol,
    mix_and_match_protocol,
    private_coin_protocol,
    run_trial,
)
from distmeantest import protocols
from distmeantest.protocols import run_plan
from oracles import whole_array_source, whole_array_trial_inputs
from test_harness import structural_configs, wider_configs


def configs():
    """Every `structural_configs()` and `wider_configs()` entry, and two
    d = 4096 configs, whose default chunk holds 128 rows: one with more
    users than that, and one with a user of more samples than that."""
    out = {f"structural-{c.protocol}": c for c in structural_configs()}
    out.update(wider_configs())
    out["limited-224-users"] = PopulationConfig(d=4096, epsilon=1.0, s=336, protocol="limited",
                                                users=[UserSpec(1, 8)] * 224)
    out["hetero_samples-m140"] = PopulationConfig(
        d=4096, epsilon=1.0, s=280, protocol="hetero_samples",
        users=[UserSpec(m, 28) for m in (7, 140, 14, 21)] * 2)
    return out


CONFIGS = configs()


def protocol_trial(cfg, samples, seed):
    """The config's `*_protocol` function on the (sum m, d) samples, split
    into each user's rows where it takes them per user."""
    d, ms, ell = cfg.plan.d, cfg.ms(), int(cfg.users.ell[0])
    per_user = np.split(samples, np.cumsum(ms)[:-1])
    if cfg.protocol == "private":
        return private_coin_protocol(samples, d, min(ell, d), cfg.epsilon)
    if cfg.protocol == "limited":
        return limited_coin_protocol(samples, d, min(ell, d), cfg.epsilon, seed)
    if cfg.protocol == "hetero_samples":
        return hetero_samples_protocol(per_user, ms, d, ell, cfg.epsilon, seed)
    if cfg.protocol == "hetero_comm":
        return hetero_comm_protocol(samples, d, cfg.ells(), cfg.epsilon, seed)
    return mix_and_match_protocol(per_user, list(cfg.users), d, cfg.epsilon, seed, cfg.partition)


def outcome(decision, transcript):
    return (transcript.serialize(), transcript.public_bits_used, decision.verdict,
            decision.statistics)


@pytest.mark.parametrize("rows", [None, 1, 5], ids=["default-chunk", "1-row", "5-rows"])
@pytest.mark.parametrize("name", list(CONFIGS))
def test_streamed_trial_equals_the_whole_array(name, rows, monkeypatch):
    # chunks of 1 and 5 rows end inside every block longer than them, so
    # block sums run across chunks
    cfg = CONFIGS[name]
    if rows is not None:
        monkeypatch.setattr(protocols, "CHUNK_BYTES", rows * 8 * cfg.plan.d)
    for mode, trial in itertools.product(MEAN_MODES, range(3)):
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        streamed = outcome(*run_trial(cfg, mean, trial, master_seed=11, sample_path="literal"))
        bits, samples = whole_array_trial_inputs(cfg, mean, trial, master_seed=11)
        whole = run_plan(cfg.plan, PublicSeed(bits), whole_array_source(samples, cfg.ms()))
        assert outcome(*whole) == streamed
        assert outcome(*protocol_trial(cfg, samples, PublicSeed(bits))) == streamed


def test_the_extra_configs_outgrow_the_default_chunk():
    rows = protocols.CHUNK_BYTES // (8 * 4096)
    assert CONFIGS["limited-224-users"].n_users() > rows
    assert CONFIGS["hetero_samples-m140"].ms().max() > rows


class TestMemoryGuard:
    """A literal trial holds under a quarter of its samples' Sigma m * d * 8
    bytes, on populations whose samples take 32 MiB or more."""

    GUARDED = {
        # twice the bench literal_batch config: 28,672 users at d = 256
        "limited": PopulationConfig(d=256, epsilon=1.0, s=0, protocol="limited",
                                    users=UserRuns([1], [16], [28_672])),
        "mix_and_match": PopulationConfig(d=64, epsilon=1.0, s=56, protocol="mix_and_match",
                                          users=UserRuns([28, 56], [8, 16], [1_200, 1_200])),
    }

    @pytest.mark.parametrize("name", list(GUARDED))
    def test_trial_peak_is_under_a_quarter_of_the_samples(self, name):
        cfg = self.GUARDED[name]
        sample_bytes = int(cfg.ms().sum()) * cfg.plan.d * 8
        assert sample_bytes >= 32 << 20
        cfg.plan.runs      # the plan's runs outlive the trial; build them outside it
        tracemalloc.start()
        try:
            decision, transcript = run_trial(cfg, MeanSpec("spike", 1.0), 0, sample_path="literal")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decision.consistent() and transcript.total_bits == sum(cfg.plan.totals)
        assert peak < sample_bytes // 4, (peak, sample_bytes)


class TestSharedReadsGuard:
    """hetero_comm and hetero_samples send one run in all seven repetitions,
    whose senders' arrays a literal trial holds once: its traced peak grows
    by a bounded number of bytes per user.  Trials at n and 2n users are
    compared, after an untraced trial has built what the first trial of a
    process builds once, so the fixed chunk of samples cancels."""

    # bytes per user: a hetero_comm trial holds three int64 arrays of its
    # senders and seven streams of 1-4 bits each (48 bytes measured); a
    # hetero_samples trial adds its senders' int64 block sizes (70 bytes).
    # Each repetition's int64 block ends measured 118 bytes, and three
    # arrays per repetition, as when no run was shared, 192 and 318 bytes.
    GUARDED = {
        "hetero_comm": (96, lambda c: PopulationConfig(
            d=32, epsilon=1.0, s=140, protocol="hetero_comm",
            users=UserRuns([1, 1, 1], [8, 16, 32], [c] * 3))),
        "hetero_samples": (192, lambda c: PopulationConfig(
            d=16, epsilon=1.0, s=84, protocol="hetero_samples",
            users=UserRuns([7, 14, 28], [16] * 3, [c] * 3))),
    }
    # the same trial, without an array of block ends per repetition
    GUARDED["hetero_samples_shared_rows"] = (96, GUARDED["hetero_samples"][1])

    @staticmethod
    def traced_peak(cfg) -> int:
        tracemalloc.start()
        try:
            run_trial(cfg, MeanSpec("spike", 1.0), 0, sample_path="literal")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", list(GUARDED))
    def test_peak_per_user_is_bounded(self, name):
        bound, build = self.GUARDED[name]
        small, large = build(10_000), build(20_000)
        for cfg in (small, large):      # they outlive the trial; build them outside it
            cfg.plan.runs, cfg.ms()
        assert large.plan.runs[0] is large.plan.runs[-1]
        run_trial(small, MeanSpec("spike", 1.0), 0, sample_path="literal")
        growth = self.traced_peak(large) - self.traced_peak(small)
        assert growth < bound * (large.n_users() - small.n_users()), growth
