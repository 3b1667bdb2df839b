"""Input checks that the protocol, harness and CLI tests do not reach: each
bad input is rejected with the package's error, never reinterpreted."""

import json
import math

import numpy as np
import pytest

from distmeantest.binary_test import bpmt_moments_oracle, collision_statistic_counts
from distmeantest.brht import compression_probe, sample_brht
from distmeantest.cli import EXIT_OK, main
from distmeantest.errors import DegenerateInputError, DimensionError, ParameterError
from distmeantest.harness import (
    MeanSpec,
    PopulationConfig,
    UserRuns,
    bpmt_error_rates,
    calibrate,
    calibrate_bpmt,
    estimate_error,
    make_mean,
    run_batch,
    run_trial,
)
from distmeantest.protocols import (
    Transcript,
    UserSpec,
    greedy_partition,
    hetero_comm_params,
    hetero_comm_plan,
    hetero_comm_protocol,
    hetero_pair_weight,
    hetero_samples_plan,
    hetero_samples_protocol,
    limited_coin_params,
    limited_coin_protocol,
    mix_and_match_keep_length,
    mix_and_match_plan,
    mix_and_match_protocol,
    private_coin_protocol,
    seed_block_length,
)
from distmeantest.randomness import PublicSeed
from oracles import assemble_wraparound, layout_of


def test_transcript_rejects_array_stream_of_wrong_length():
    layout = layout_of([(np.arange(2), np.array([3, 2]))], 2)
    with pytest.raises(ParameterError, match="do not match their runs"):
        Transcript(layout, [np.zeros(4, dtype=np.uint8)])


def test_assemble_wraparound_rejects_1d_input():
    with pytest.raises(DimensionError):
        assemble_wraparound(np.zeros(8, dtype=np.uint8), np.array([8]))


def test_greedy_partition_rejects_zero_length():
    with pytest.raises(ParameterError):
        greedy_partition(np.full(4, 7), np.full(4, 8), L=0)


def test_seed_block_length_rejects_negative_budget():
    with pytest.raises(ParameterError):
        seed_block_length(16, -1)


@pytest.mark.parametrize("build", [
    lambda: seed_block_length(0, 28),
    lambda: seed_block_length(12, 28),
    lambda: mix_and_match_keep_length(0, [8], 0),
    lambda: limited_coin_params(12, 4, 28),
    lambda: hetero_comm_params(12, np.array([14]), 28),
], ids=["seed_block_length_0", "seed_block_length_12", "mix_and_match_keep_length_0",
        "limited_coin_params_12", "hetero_comm_params_12"])
def test_seed_block_length_rejects_a_dimension_not_a_power_of_two(build):
    # d = 0 once ended in Python's "negative shift count", and d = 12 gave
    # d_s = 6 and a hetero_comm L = 8, which does not divide 12
    with pytest.raises(DimensionError, match="protocol dimension must be a positive power of two"):
        build()


@pytest.mark.parametrize("ones, n, error", [
    ([1, 0], 1, DegenerateInputError),
    ([3, 0], 2, ParameterError),
    ([-1, 0], 2, ParameterError),
], ids=["one_sample", "count_above_n", "negative_count"])
def test_collision_statistic_counts_rejects_what_no_samples_give(ones, n, error):
    # n = 1 once gave nan, and [3, 0] of two samples T = 2.0
    with pytest.raises(error):
        collision_statistic_counts(np.array(ones), n)
    assert collision_statistic_counts(np.array([2, 0]), 2) == 0.5


def test_limited_coin_params_rejects_budget_above_dimension():
    with pytest.raises(ParameterError):
        limited_coin_params(16, 17, 0)


def test_hetero_comm_params_rejects_budget_below_one():
    with pytest.raises(ParameterError):
        hetero_comm_params(16, np.array([7, 0]), 0)


def test_hetero_samples_protocol_rejects_wrong_number_of_sample_sets():
    with pytest.raises(DimensionError, match="2 sample sets for 3 users"):
        hetero_samples_protocol([np.zeros((7, 8))] * 2, np.array([7, 7, 7]), 8, 14, 1.0,
                                PublicSeed(np.zeros(0)))


def test_mix_and_match_protocol_rejects_wrong_number_of_sample_sets():
    with pytest.raises(DimensionError, match="1 sample sets for 2 users"):
        mix_and_match_protocol([np.zeros((7, 8))], [UserSpec(7, 56)] * 2, 8, 1.0,
                               PublicSeed(np.zeros(0)))


@pytest.mark.parametrize("draw", [
    lambda: PublicSeed(np.zeros((2, 2))),
    lambda: PublicSeed.random(-1, np.random.default_rng(0)),
    lambda: PublicSeed(np.zeros(4)).draw_bits(-1),
    lambda: PublicSeed(np.array([256, 1])),
    lambda: PublicSeed(np.array([1.9, 0.2])),
], ids=["2d_bits", "random_negative", "draw_negative", "bit_256", "fractional_bits"])
def test_public_seed_rejects_bad_shapes_and_counts(draw):
    # a seed once cast to uint8 before its check: [256, 1] read as [0, 1]
    with pytest.raises(ParameterError):
        draw()


def test_sample_brht_rejects_non_pow2_dimension():
    with pytest.raises(DimensionError):
        sample_brht(PublicSeed(np.zeros(0)), 12, 4)


@pytest.mark.parametrize("count", [0, -2])
def test_sample_brht_rejects_a_count_below_one(count):
    # such a count once returned signs of shape (0,), which brht_apply could
    # not broadcast
    seed = PublicSeed(np.zeros(64, np.uint8))
    with pytest.raises(ParameterError, match=f"transform count must be >= 1, got {count}"):
        sample_brht(seed, 64, 8, count)
    assert seed.consumed == 0


def test_compression_probe_rejects_mean_of_wrong_length():
    spec = sample_brht(PublicSeed(np.zeros(0)), 8, 8)
    with pytest.raises(DimensionError):
        compression_probe(spec, np.zeros(4), 1)


def test_bpmt_moments_oracle_rejects_3d_p():
    with pytest.raises(ParameterError):
        bpmt_moments_oracle(np.full((2, 2, 4), 0.5), 2)


def test_scaled_rejects_zero_multiplier():
    cfg = PopulationConfig(d=8, epsilon=1.0, s=0, protocol="private", users=[UserSpec(1, 8)] * 16)
    with pytest.raises(ParameterError):
        cfg.scaled(0)


def private_config() -> PopulationConfig:
    return PopulationConfig(d=8, epsilon=1.0, s=0, protocol="private",
                            users=[UserSpec(1, 8)] * 16, mean_modes=["null", "spike"])


@pytest.mark.parametrize("run, named", [
    (lambda: run_trial(private_config(), MeanSpec("null", 0.0), 0, master_seed=-1),
     "master seed must be >= 0, got -1"),
    (lambda: run_trial(private_config(), MeanSpec("null", 0.0), -1), "trial index must be >= 0"),
    (lambda: run_batch(private_config(), 2, master_seed=-1), "master seed must be >= 0"),
    (lambda: calibrate(private_config(), 0.1, trials=2, master_seed=-1),
     "master seed must be >= 0"),
    (lambda: bpmt_error_rates(8, 1.0, 16, 2, master_seed=-1), "master seed must be >= 0"),
], ids=["run_trial", "trial_index", "run_batch", "calibrate", "bpmt_error_rates"])
def test_negative_seed_is_named(run, named):
    with pytest.raises(ParameterError, match=named):
        run()


@pytest.mark.parametrize("run", [
    lambda seed: private_coin_protocol(np.zeros((0, 8)), 8, 8, 1.0),
    lambda seed: limited_coin_protocol(np.zeros((0, 8)), 8, 4, 1.0, seed),
    lambda seed: hetero_comm_protocol(np.zeros((0, 8)), 8, np.zeros(0, np.int64), 1.0, seed),
    lambda seed: hetero_samples_protocol([], np.zeros(0, np.int64), 8, 14, 1.0, seed),
    lambda seed: mix_and_match_protocol([], [], 8, 1.0, seed),
], ids=["private", "limited", "hetero_comm", "hetero_samples", "mix_and_match"])
def test_empty_population_rejected(run):
    with pytest.raises(ParameterError, match="population size must be >= 1, got 0"):
        run(PublicSeed(np.zeros(28)))


def test_to_dict_round_trip_keeps_partition():
    cfg = PopulationConfig(
        d=8, epsilon=1.0, s=28, protocol="mix_and_match",
        users=[UserSpec(m, 20) for m in (7, 14, 21, 28, 35, 42, 16)] * 2,
        partition=[[0, 7, 13], [1, 2, 3, 4], [5, 9, 10], [6, 8, 11, 12]],
        mean_modes=["null", "spike"])
    raw = json.loads(json.dumps(cfg.to_dict()))
    assert raw["partition"] == cfg.partition
    assert PopulationConfig.from_dict(raw) == cfg


def test_sweep_over_seed_budget(tmp_path, capsys):
    cfg = PopulationConfig(d=16, epsilon=1.0, s=0, protocol="limited",
                           users=[UserSpec(1, 4)] * 112, mean_modes=["null", "spike"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    code = main(["sweep", "--config", str(path), "--param", "s", "--values", "0,28",
                 "--trials", "4", "--seed", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [["s", "0", "4"], ["s", "28", "4"]]
    for line, s in zip(lines[1:], (0, 28)):
        est = estimate_error(PopulationConfig.from_dict({**cfg.to_dict(), "s": s}), 4,
                             master_seed=5)
        assert line.split(",")[3:] == [repr(est.type1_rate), repr(est.type2_rates["spike"]),
                                       repr(est.ci_halfwidth)]


@pytest.mark.parametrize("build", [
    lambda: hetero_comm_params(16, np.array([], np.int64), 0),
    lambda: hetero_comm_plan(np.array([], np.int64), 16, 1.0, 0),
    lambda: mix_and_match_keep_length(8, [], 0),
    lambda: mix_and_match_plan([], [], 8, 1.0, 0),
], ids=["hetero_comm_params", "hetero_comm_plan", "mix_and_match_keep_length",
        "mix_and_match_plan"])
def test_plan_builders_reject_an_empty_population(build):
    with pytest.raises(ParameterError, match="population size must be >= 1, got 0"):
        build()


def test_seed_from_int_rejects_a_negative_length():
    with pytest.raises(ParameterError, match="seed length must be >= 0, got -1"):
        PublicSeed.from_int(0, -1)


@pytest.mark.parametrize("norm", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("mode", ["spike", "spread", "random_direction"])
def test_mean_spec_rejects_a_norm_that_is_not_finite(mode, norm):
    # an infinite norm once failed inside numpy on the law path and rejected
    # silently, at T = 2.0, on the literal path
    with pytest.raises(ParameterError, match="alternative modes need"):
        MeanSpec(mode, norm)
    assert MeanSpec(mode, 1e308).norm == 1e308


def test_random_direction_names_its_missing_stream():
    # without a stream, numpy's AttributeError once escaped from make_mean
    with pytest.raises(ParameterError, match="random-direction mean needs a mean stream"):
        make_mean(MeanSpec("random_direction", 1.0), 8, None)


@pytest.mark.parametrize("run", [
    lambda: bpmt_error_rates(4, 0.5, 8, 0),
    lambda: calibrate_bpmt(4, 0.5, 0.1, trials=0),
    lambda: calibrate_bpmt(4, 0.5, 0.1, cap=4.0, trials=0),
], ids=["bpmt_error_rates", "calibrate_bpmt", "calibrate_bpmt_below_its_first_size"])
def test_centralized_test_rejects_zero_trials(run):
    # zero trials once ended in Python's ZeroDivisionError
    with pytest.raises(ParameterError, match="trials must be >= 1, got 0"):
        run()


@pytest.mark.parametrize("build, error", [
    (lambda: hetero_samples_plan(np.array([7, 14, 21]), 8, 56, 1.0, 0, count=[4]),
     DimensionError),
    (lambda: hetero_samples_plan(np.array([7, 14, 21]), 8, 56, 1.0, 0, count=[0, 2, 1]),
     ParameterError),
    (lambda: hetero_comm_plan(np.array([14, 28]), 8, 1.0, 0, count=[2, 2, 2]), DimensionError),
    (lambda: mix_and_match_plan([7, 14], [56, 56], 8, 1.0, 0, count=[3]), DimensionError),
    (lambda: mix_and_match_plan([7, 14], [56, 56], 8, 1.0, 0, count=[3, -1]), ParameterError),
    (lambda: hetero_pair_weight(np.array([7, 14]), counts=[-1, 2]), ParameterError),
    (lambda: hetero_pair_weight(np.array([7, 14]), counts=[3]), DimensionError),
], ids=["hetero_samples_short", "hetero_samples_zero", "hetero_comm_long",
        "mix_and_match_short", "mix_and_match_negative", "pair_weight_negative",
        "pair_weight_short"])
def test_run_counts_are_read_as_one_count_per_entry(build, error):
    # a short count once built a plan from the first entries alone, a
    # one-entry count broadcast, and a count below one was read as given
    with pytest.raises(error, match="user count"):
        build()


def test_pair_weight_of_runs_equals_that_of_their_users():
    m = np.array([7, 14, 21])
    assert hetero_pair_weight(m, counts=[2, 1, 3]) == pytest.approx(
        hetero_pair_weight(np.repeat(m, [2, 1, 3])), rel=1e-15)


@pytest.mark.parametrize("build", [
    lambda: UserRuns([1.5], [8], [3]),
    lambda: UserRuns([2], [8.0], [3]),
    lambda: UserRuns([2], [8], [np.nan]),
    lambda: PopulationConfig(d=8, epsilon=1.0, s=0, protocol="hetero_samples",
                             users=[UserSpec(7.9, 56)] * 4),
], ids=["fractional_m", "float_ell", "nan_count", "config_of_fractional_m"])
def test_user_runs_reject_values_that_are_not_integers(build):
    # UserRuns cast to int64, so m = 1.5 once ran as 1 and 7.9 as 7
    with pytest.raises(ParameterError, match="as integer arrays"):
        build()
    assert UserRuns(np.array([7], np.int32), [56], [4]).m.tolist() == [7]
