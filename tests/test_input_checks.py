"""Input checks that the protocol, harness and CLI tests do not reach: each
bad input is rejected with the package's error, never reinterpreted."""

import json

import numpy as np
import pytest

from distmeantest.binary_test import bpmt_moments_oracle
from distmeantest.brht import compression_probe, sample_brht
from distmeantest.cli import EXIT_OK, main
from distmeantest.errors import DimensionError, ParameterError
from distmeantest.harness import (
    MeanSpec,
    PopulationConfig,
    bpmt_error_rates,
    calibrate,
    estimate_error,
    run_batch,
    run_trial,
)
from distmeantest.protocols import (
    Transcript,
    UserSpec,
    greedy_partition,
    hetero_comm_params,
    hetero_comm_protocol,
    hetero_samples_protocol,
    limited_coin_params,
    limited_coin_protocol,
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
], ids=["2d_bits", "random_negative", "draw_negative"])
def test_public_seed_rejects_bad_shapes_and_counts(draw):
    with pytest.raises(ParameterError):
        draw()


def test_sample_brht_rejects_non_pow2_dimension():
    with pytest.raises(DimensionError):
        sample_brht(PublicSeed(np.zeros(0)), 12, 4)


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
