"""Harness tests: mean generation, configs, trials, auditing, calibration."""

import dataclasses
import hashlib
import itertools
import json
import math
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from distmeantest import (
    MEAN_MODES,
    BrhtSpec,
    PublicSeed,
    CalibrationFailedError,
    MeanSpec,
    ParameterError,
    PopulationConfig,
    Transcript,
    TrialRecord,
    UserRuns,
    UserSpec,
    bpmt_error_rates,
    bpmt_moments_oracle,
    brht_apply,
    budget_audit,
    calibrate,
    calibrate_bpmt,
    estimate_error,
    gen_gaussian_samples,
    make_mean,
    run_batch,
    run_trial,
    sample_brht,
    sign_flip_prob,
    sign_quantize,
    write_records_csv,
)
from distmeantest import harness, protocols
from distmeantest.binary_test import ACCEPT, REJECT, collision_statistic
from distmeantest.errors import InfeasiblePartitionError
from distmeantest.harness import (
    CSV_COLUMNS,
    MAX_MULTIPLIER,
    AuditReport,
    bpmt_spike_alternative,
    bpmt_spread_alternative,
)
from distmeantest.protocols import Decision
from oracles import layout_of, transcript_from_lengths

RNG = np.random.default_rng(20240820)


def small_config(protocol="private", **overrides):
    base = dict(d=8, epsilon=1.0, s=0, protocol=protocol,
                users=[UserSpec(1, 8) for _ in range(32)])
    base.update(overrides)
    return PopulationConfig(**base)


class TestMakeMean:
    def test_null_is_zero(self):
        mu = make_mean(MeanSpec("null", 0.0), 6, np.random.default_rng(0))
        assert np.array_equal(mu, np.zeros(6))

    def test_spike(self):
        mu = make_mean(MeanSpec("spike", 0.8), 5, np.random.default_rng(0))
        assert mu.tolist() == [0.8, 0, 0, 0, 0]

    def test_spread(self):
        mu = make_mean(MeanSpec("spread", 1.0), 4, np.random.default_rng(0))
        assert np.allclose(mu, 0.5)

    def test_random_direction_norm(self):
        for trial in range(5):
            mu = make_mean(MeanSpec("random_direction", 0.7), 16,
                           np.random.default_rng(trial))
            assert abs(np.linalg.norm(mu) - 0.7) < 1e-12

    def test_random_direction_replay(self):
        a = make_mean(MeanSpec("random_direction", 1.0), 8, np.random.default_rng(42))
        b = make_mean(MeanSpec("random_direction", 1.0), 8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_all_modes_have_requested_norm(self):
        for mode in MEAN_MODES:
            norm = 0.0 if mode == "null" else 0.9
            mu = make_mean(MeanSpec(mode, norm), 32, np.random.default_rng(7))
            assert abs(np.linalg.norm(mu) - norm) < 1e-12, mode

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            MeanSpec("gradient", 1.0)
        with pytest.raises(ParameterError):
            MeanSpec("null", 0.5)
        with pytest.raises(ParameterError):
            MeanSpec("spike", 0.0)

    def test_bad_dimension(self):
        with pytest.raises(ParameterError):
            make_mean(MeanSpec("spike", 1.0), 0, np.random.default_rng(0))

    def test_random_direction_redraws_a_zero_draw(self):
        class FirstDrawZero:
            def __init__(self):
                self.draws = [np.zeros(4), np.array([3.0, 0.0, 4.0, 0.0])]

            def standard_normal(self, d):
                return self.draws.pop(0)

        stream = FirstDrawZero()
        mu = make_mean(MeanSpec("random_direction", 5.0), 4, stream)
        assert mu.tolist() == [3.0, 0.0, 4.0, 0.0] and stream.draws == []


class TestSignFlipProb:
    def test_zero_mean_is_fair(self):
        assert sign_flip_prob(0.0) == 0.5

    def test_symmetry(self):
        for mu in (0.1, 0.5, 1.3, 4.0):
            assert sign_flip_prob(mu) + sign_flip_prob(-mu) == pytest.approx(1.0, abs=1e-15)

    def test_distance_retained_after_quantization(self):
        # the binary mean keeps at least 1/8 of a unit-size Gaussian shift
        for mu in np.linspace(-1.0, 1.0, 41):
            assert abs(sign_flip_prob(mu) - 0.5) >= abs(mu) / 8.0

    def test_monotone(self):
        grid = [sign_flip_prob(x) for x in np.linspace(-3, 3, 25)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_matches_quantizer_frequency(self):
        mu = -0.45
        draws = RNG.standard_normal(50_000) + mu
        freq = sign_quantize(draws).mean()
        assert abs(freq - sign_flip_prob(mu)) < 0.01

    @staticmethod
    def reference(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2))

    EDGES = [0.0, -0.0, 38.0, -38.0, 5e-324, -5e-324, 1e-310, 0.3, -1.7, 8.5, -8.5]

    @pytest.mark.parametrize("x", EDGES)
    def test_scalar_is_math_erfc_bit_for_bit(self, x):
        for value in (x, np.float64(x), np.array(x)):
            out = sign_flip_prob(value)
            assert isinstance(out, np.float64)
            assert out.tobytes() == np.float64(self.reference(x)).tobytes()

    @pytest.mark.parametrize("shape", [(7, 1, 4), (7, 3, 16), (2, 11)])
    def test_array_is_math_erfc_bit_for_bit(self, shape):
        x = RNG.standard_normal(shape) * 6
        x.flat[:len(self.EDGES)] = self.EDGES
        out = sign_flip_prob(x)
        assert out.shape == shape and out.dtype == np.float64
        expected = np.array([self.reference(v) for v in x.ravel().tolist()]).reshape(shape)
        assert out.tobytes() == expected.tobytes()
        # a non-contiguous view reads its own values
        assert sign_flip_prob(x[..., ::2]).tobytes() == expected[..., ::2].copy().tobytes()


class TestGaussianSampling:
    def test_shape_and_replay(self):
        mu = np.array([0.2, -0.1, 0.0])
        a = gen_gaussian_samples(mu, 5, np.random.default_rng(3))
        b = gen_gaussian_samples(mu, 5, np.random.default_rng(3))
        assert a.shape == (5, 3)
        assert np.array_equal(a, b)

    def test_moments(self):
        mu = np.array([0.7, -0.3])
        x = gen_gaussian_samples(mu, 40_000, RNG)
        assert np.allclose(x.mean(axis=0), mu, atol=0.02)
        assert np.allclose(x.var(axis=0), 1.0, atol=0.03)

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            gen_gaussian_samples(np.zeros(2), 0, RNG)


class TestPopulationConfig:
    def test_accessors(self):
        cfg = small_config()
        assert cfg.n_users() == 32
        assert cfg.ms().tolist() == [1] * 32
        assert cfg.ells().tolist() == [8] * 32

    def test_dict_round_trip(self):
        cfg = PopulationConfig(
            d=16, epsilon=0.8, s=28, protocol="hetero_comm",
            users=[UserSpec(1, 7)] * 3 + [UserSpec(1, 21)] * 2,
            mean_modes=["null", "spike"])
        raw = cfg.to_dict()
        assert raw["users"] == [{"m": 1, "ell": 7, "count": 3},
                                {"m": 1, "ell": 21, "count": 2}]
        again = PopulationConfig.from_dict(raw)
        assert again.users == cfg.users
        assert (again.d, again.epsilon, again.s) == (16, 0.8, 28)
        assert again.mean_modes == ["null", "spike"]

    def test_from_dict_defaults_all_modes(self):
        cfg = PopulationConfig.from_dict(
            {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
             "users": [{"m": 1, "ell": 8, "count": 14}]})
        assert cfg.mean_modes == list(MEAN_MODES)

    def test_scaled(self):
        cfg = small_config().scaled(3)
        assert cfg.n_users() == 96
        assert cfg.partition is None

    def test_json_file_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "config.json"
        path.write_text(__import__("json").dumps(cfg.to_dict()))
        again = PopulationConfig.from_json_file(str(path))
        assert again.users == cfg.users

    @pytest.mark.parametrize("overrides", [
        dict(protocol="telepathy"),
        dict(epsilon=0.0),
        dict(epsilon=1.5),
        dict(s=-1),
        dict(d=0),
        dict(users=[]),
        dict(mean_modes=["spike"]),              # null is mandatory
        dict(mean_modes=["null", "banana"]),
        dict(partition=[[0]]),                   # partitions are mix-only
        dict(users=[UserSpec(2, 8)] * 4),        # private wants m=1
        dict(users=[UserSpec(1, 8), UserSpec(1, 4)]),  # private wants uniform ell
        dict(mean_modes=["null", "null", "spike"]),  # a mode counted twice
    ])
    def test_validation(self, overrides):
        with pytest.raises(ParameterError):
            small_config(**overrides)

    def test_frozen(self):
        # plans are cached on the config, so a reassigned field would be ignored
        cfg = small_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epsilon = 0.25

    def test_from_dict_bad_count(self):
        with pytest.raises(ParameterError):
            PopulationConfig.from_dict(
                {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
                 "users": [{"m": 1, "ell": 8, "count": 0}]})


def structural_configs():
    return [
        small_config(),
        PopulationConfig(d=16, epsilon=1.0, s=28, protocol="limited",
                         users=[UserSpec(1, 4)] * 112),
        PopulationConfig(d=8, epsilon=1.0, s=56, protocol="hetero_samples",
                         users=[UserSpec(7, 14), UserSpec(14, 14)] * 4),
        PopulationConfig(d=8, epsilon=1.0, s=0, protocol="hetero_comm",
                         users=[UserSpec(1, 7), UserSpec(1, 14), UserSpec(1, 28)] * 4),
        PopulationConfig(d=8, epsilon=1.0, s=0, protocol="mix_and_match",
                         users=[UserSpec(m, 15) for m in (7, 14, 9, 21, 8, 12, 7, 30)]),
    ]


BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


def sixteenth(name):
    """A bench config with each count cut to a sixteenth."""
    raw = json.loads((BENCH_CONFIGS / f"{name}.json").read_text())
    raw["users"] = [dict(run, count=run["count"] // 16) for run in raw["users"]]
    return PopulationConfig.from_dict(raw)


def bench_shapes():
    """The bench configs' run patterns, each count cut to a sixteenth."""
    return [sixteenth(name) for name in ("hetero_samples", "hetero_comm", "mix_and_match",
                                         "literal_batch", "wide_rotation")]


def run_length(users: list[UserSpec]) -> list[dict]:
    """The JSON runs of a list of users, one run per group of equal neighbours."""
    return [{"m": u.m, "ell": u.ell, "count": len(list(group))}
            for u, group in itertools.groupby(users)]


# a mix whose first and last runs are alike, so copies merge at the seam
SEAM_MIX = PopulationConfig(
    d=8, epsilon=1.0, s=0, protocol="mix_and_match",
    users=[UserSpec(14, 20)] * 3 + [UserSpec(7, 30)] * 2 + [UserSpec(21, 9)] + [UserSpec(14, 20)])


class TestPopulationRuns:
    """Users held as runs: a list of `UserSpec`s, JSON runs and `scaled`
    copies of one population build the same config."""

    BASES = structural_configs() + bench_shapes() + [SEAM_MIX]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("base", BASES, ids=[f"{c.protocol}-{c.n_users()}" for c in BASES])
    def test_list_runs_and_scaled_agree(self, base, k):
        users = list(base.users) * k
        from_list = dataclasses.replace(base, users=users)
        from_runs = PopulationConfig.from_dict(dict(base.to_dict(), users=run_length(users)))
        for cfg in (from_runs, base.scaled(k)):
            assert cfg == from_list
            assert cfg.users == from_list.users and list(cfg.users) == users
            assert cfg.n_users() == len(cfg.users) == len(users)
            assert cfg.ms().tolist() == [u.m for u in users]
            assert cfg.ells().tolist() == [u.ell for u in users]
            assert cfg.to_dict() == from_list.to_dict()
            assert cfg.to_dict()["users"] == run_length(users)
            assert np.array_equal(cfg.plan.lengths, from_list.plan.lengths)
            for (u, sent), (u0, sent0) in zip(cfg.plan.runs, from_list.plan.runs, strict=True):
                assert np.array_equal(u, u0) and np.array_equal(sent, sent0)

    def test_seam_merges(self):
        assert SEAM_MIX.users.count.tolist() == [3, 2, 1, 1]
        assert SEAM_MIX.scaled(3).users.count.tolist() == [3, 2, 1, 4, 2, 1, 4, 2, 1, 1]

    def test_adjacent_equal_json_runs_merge(self):
        raw = dict(small_config().to_dict(), users=[{"m": 1, "ell": 8, "count": 5},
                                                    {"m": 1, "ell": 8, "count": 27}])
        assert PopulationConfig.from_dict(raw) == small_config()

    def test_runs_differ_from_other_types(self):
        runs = small_config().users
        assert (runs == list(runs)) is False and runs != runs.to_dicts()

    def test_runs_are_read_only(self):
        cfg = small_config()
        for values in (cfg.users.m, cfg.users.ell, cfg.users.count, cfg.ms(), cfg.ells()):
            assert not values.flags.writeable

    def test_huge_populations_build_in_runs(self):
        # neither build nor the round trip touches a per-user array
        tracemalloc.start()
        try:
            huge = PopulationConfig.from_dict(
                dict(small_config().to_dict(), users=[{"m": 1, "ell": 8, "count": 10 ** 12}]))
            scaled = small_config().scaled(2 ** 40)
            for cfg, n in ((huge, 10 ** 12), (scaled, 32 * 2 ** 40)):
                assert cfg.n_users() == n
                assert cfg.to_dict()["users"] == [{"m": 1, "ell": 8, "count": n}]
                assert PopulationConfig.from_dict(cfg.to_dict()) == cfg
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("build", [
        lambda: PopulationConfig.from_dict(dict(small_config().to_dict(), users=[
            {"m": 1, "ell": 8, "count": 2 ** 62}, {"m": 1, "ell": 8, "count": 2 ** 62}])),
        lambda: UserRuns([1, 1], [8, 16], [2 ** 62, 2 ** 62]),
        lambda: small_config().scaled(2 ** 58),
    ], ids=["json_runs", "runs", "scaled"])
    def test_user_total_beyond_int64(self, build):
        with pytest.raises(ParameterError, match="count total 9223372036854775808 does not fit"):
            build()


class TestRunTrial:
    @pytest.mark.parametrize("path", ["law", "literal"])
    def test_replay_determinism(self, path):
        cfg = small_config()
        runs = []
        for _ in range(2):
            dec, tr = run_trial(cfg, MeanSpec("spike", 1.0), trial_index=4,
                                master_seed=11, sample_path=path)
            runs.append((dec.verdict, tr.serialize(), tr.public_bits_used))
        assert runs[0] == runs[1]

    def test_trials_differ(self):
        cfg = small_config()
        a = run_trial(cfg, MeanSpec("null", 0.0), 0, master_seed=5)[1]
        b = run_trial(cfg, MeanSpec("null", 0.0), 1, master_seed=5)[1]
        assert a.serialize() != b.serialize()

    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_law_and_literal_share_structure(self, cfg):
        # same per-user message lengths and identical seed consumption
        for mode in ("null", "spike"):
            mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
            _, law = run_trial(cfg, mean, 0, master_seed=2, sample_path="law")
            _, lit = run_trial(cfg, mean, 0, master_seed=2, sample_path="literal")
            assert np.array_equal(law.offsets, lit.offsets), cfg.protocol
            assert law.public_bits_used == lit.public_bits_used, cfg.protocol

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_lengths_and_offsets_follow_the_plan_runs(self, cfg, path):
        # each user's bits are its segments summed over the plan's runs, the
        # offsets their cumulative sum, and neither may be written: every
        # trial's transcript shares them
        _, tr = run_trial(cfg, MeanSpec("null", 0.0), 0, master_seed=2, sample_path=path)
        sums = np.zeros(cfg.n_users(), dtype=np.int64)
        for users, lengths in cfg.plan.runs:
            np.add.at(sums, users, lengths)
        assert np.array_equal(tr.bits_sent, sums)
        assert np.array_equal(tr.offsets, np.concatenate([[0], np.cumsum(sums)]))
        assert not tr.bits_sent.flags.writeable and not tr.offsets.flags.writeable
        assert tr.layout is cfg.plan

    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_audit_clean(self, cfg):
        for mode in ("null", "spread"):
            mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
            for path in ("law", "literal"):
                _, tr = run_trial(cfg, mean, 1, master_seed=3, sample_path=path)
                report = budget_audit(tr, cfg)
                assert report.ok, report.violations

    def test_law_matches_literal_rates(self):
        # 16 users leave both error rates in the open interval, so the two
        # sampling paths can be compared as estimators of the same law.
        cfg = PopulationConfig(d=8, epsilon=1.0, s=0, protocol="private",
                               users=[UserSpec(1, 8)] * 16,
                               mean_modes=["null", "spike"])
        est = {path: estimate_error(cfg, trials=400, master_seed=21, sample_path=path)
               for path in ("law", "literal")}
        t1 = (est["law"].type1_rate, est["literal"].type1_rate)
        t2 = (est["law"].type2_rates["spike"], est["literal"].type2_rates["spike"])
        assert abs(t1[0] - t1[1]) < 0.1, f"type1 {t1}"
        assert abs(t2[0] - t2[1]) < 0.1, f"type2 {t2}"
        assert 0.0 < t1[0] < 1.0 or 0.0 < t2[0] < 1.0  # comparison is informative

    @pytest.mark.parametrize("cfg", [
        PopulationConfig(d=2, epsilon=1.0, s=28, protocol="limited",
                         users=[UserSpec(1, 2)] * 7000, mean_modes=["null", "spike"]),
        PopulationConfig(d=2, epsilon=1.0, s=0, protocol="hetero_samples",
                         users=[UserSpec(m, 14) for m in (2240, 4480)] * 10,
                         mean_modes=["null", "spike"]),
        pytest.param(
            PopulationConfig(d=8, epsilon=1.0, s=0, protocol="hetero_comm",
                             users=[UserSpec(1, 7), UserSpec(1, 14), UserSpec(1, 28)] * 400,
                             mean_modes=["null", "spike"]),
            marks=pytest.mark.xfail(strict=True, reason=(
                "the law path draws the seven repetitions independently, but each "
                "user's single sample feeds all seven; with s=0 they are identical"))),
        PopulationConfig(d=2, epsilon=1.0, s=0, protocol="mix_and_match",
                         users=[UserSpec(m, 7) for m in (2240, 3360, 4480, 5600)] * 5,
                         mean_modes=["null", "spike"]),
    ], ids=["limited", "hetero_samples", "hetero_comm", "mix_and_match"])
    def test_law_matches_literal_rates_amplified(self, cfg):
        # Populations sized so the type-I rate sits inside (0, 1); the
        # tolerance is the one of test_law_matches_literal_rates.
        est = {path: estimate_error(cfg, trials=400, master_seed=21, sample_path=path)
               for path in ("law", "literal")}
        t1 = (est["law"].type1_rate, est["literal"].type1_rate)
        t2 = (est["law"].type2_rates["spike"], est["literal"].type2_rates["spike"])
        assert abs(t1[0] - t1[1]) < 0.1, f"type1 {t1}"
        assert abs(t2[0] - t2[1]) < 0.1, f"type2 {t2}"
        assert 0.0 < t1[0] < 1.0 or 0.0 < t2[0] < 1.0

    def test_non_pow2_dimension_padded(self):
        cfg = PopulationConfig(d=6, epsilon=1.0, s=0, protocol="private",
                               users=[UserSpec(1, 6)] * 16)
        _, tr = run_trial(cfg, MeanSpec("spike", 1.0), 0)
        assert budget_audit(tr, cfg).ok
        assert int(tr.bits_sent.max()) <= 6

    @pytest.mark.parametrize("protocol,m,ell", [("limited", 1, 1), ("hetero_samples", 7, 7)])
    def test_field_cap_is_rejected_up_front(self, protocol, m, ell):
        cfg = PopulationConfig(d=1 << 17, epsilon=1.0, s=476, protocol=protocol,
                               users=[UserSpec(m, ell)] * 7)
        for path in ("law", "literal"):
            with pytest.raises(ParameterError, match="GF"):
                run_trial(cfg, MeanSpec("null", 0.0), 0, sample_path=path)

    def test_bad_sample_path(self):
        with pytest.raises(ParameterError):
            run_trial(small_config(), MeanSpec("null", 0.0), 0, sample_path="oracle")


class TestBudgetAudit:
    def test_flags_overdrawn_user(self):
        cfg = small_config()
        _, tr = run_trial(cfg, MeanSpec("null", 0.0), 0)
        lengths = tr.bits_sent.copy()
        lengths[3] += 2                            # inflate one user past budget
        bad = transcript_from_lengths(lengths, public_bits_used=tr.public_bits_used)
        report = budget_audit(bad, cfg)
        assert not report.ok
        assert any("user 3" in v for v in report.violations), report.violations

    def test_flags_seed_overdraw(self):
        cfg = small_config()
        bad = transcript_from_lengths(np.full(32, 8), public_bits_used=1)
        report = budget_audit(bad, cfg)   # config has s=0
        assert not report.ok
        assert any("public" in v for v in report.violations)

    def test_flags_overdrawn_user_of_a_copy_of_the_plan(self):
        # a layout with the plan's runs that is not the plan object gets the
        # full per-user check, against the budgets of the config it is
        # audited for
        cfg = structural_configs()[3]                       # hetero_comm
        copy = layout_of(cfg.plan.runs, cfg.n_users())
        tr = Transcript(copy, [np.zeros(total, dtype=np.uint8) for total in copy.totals])
        assert budget_audit(tr, cfg).ok
        k = int(np.argmax(copy.lengths))
        users = list(cfg.users)
        users[k] = UserSpec(1, int(copy.lengths[k]) - 1)
        tight = dataclasses.replace(cfg, users=users)
        report = budget_audit(tr, tight)
        assert report.violations == [
            f"user {k} sent {int(copy.lengths[k])} bits, budget {int(copy.lengths[k]) - 1}"]
        # the plan's own transcripts keep passing, checked once per config
        _, planned = run_trial(tight, MeanSpec("null", 0.0), 0)
        assert planned.layout is tight.plan and budget_audit(planned, tight).ok

    def test_flags_user_count_mismatch(self):
        cfg = small_config()
        report = budget_audit(transcript_from_lengths(np.full(31, 8)), cfg)
        assert not report.ok


class TestRunBatch:
    def test_stubbed_always_accept(self):
        cfg = small_config()
        stub = lambda config, mean, trial: (  # noqa: E731
            Decision(ACCEPT), transcript_from_lengths(np.zeros(32, dtype=np.int64)))
        est = estimate_error(cfg, trials=10, protocol_runner=stub)
        assert est.type1_rate == 0.0
        assert est.type2_rates == {"spike": 1.0, "spread": 1.0, "random_direction": 1.0}
        assert est.worst_rate == 1.0
        assert est.ci_halfwidth == 0.0

    def test_stubbed_always_reject(self):
        cfg = small_config(mean_modes=["null", "spike"])
        stub = lambda config, mean, trial: (  # noqa: E731
            Decision(REJECT), transcript_from_lengths(np.zeros(32, dtype=np.int64)))
        est = estimate_error(cfg, trials=10, protocol_runner=stub)
        assert est.type1_rate == 1.0
        assert est.type2_rates == {"spike": 0.0}

    def test_ci_formula(self):
        cfg = small_config(mean_modes=["null", "spike"])
        flip = lambda config, mean, trial: (  # noqa: E731
            Decision(REJECT if trial % 4 == 0 else ACCEPT),
            transcript_from_lengths(np.zeros(32, dtype=np.int64)))
        est = estimate_error(cfg, trials=8, protocol_runner=flip)
        assert est.type1_rate == 0.25
        assert est.type2_rates["spike"] == 0.75
        assert est.ci_halfwidth == pytest.approx(1.96 * math.sqrt(0.75 * 0.25 / 8))

    def test_records_layout(self):
        cfg = small_config(mean_modes=["null", "spike"])
        result = run_batch(cfg, trials=3, master_seed=1, timing=False)
        assert len(result.records) == 6
        assert [r.mean_mode for r in result.records] == ["null"] * 3 + ["spike"] * 3
        assert [r.trial for r in result.records] == [0, 1, 2, 0, 1, 2]
        assert all(r.wall_micros == 0 for r in result.records)
        assert all(r.verdict in (ACCEPT, REJECT) for r in result.records)
        assert result.audit_violations == []

    def test_audit_violations_propagate(self):
        cfg = small_config(mean_modes=["null"])
        stub = lambda config, mean, trial: (  # noqa: E731
            Decision(ACCEPT), transcript_from_lengths(np.full(32, 9)))
        result = run_batch(cfg, trials=2, protocol_runner=stub)
        assert len(result.audit_violations) == 2 * 32
        assert "mode=null trial=0" in result.audit_violations[0]

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_trials_never_build_transcript_data(self, cfg, path, monkeypatch):
        # the audit and the records read lengths and counts only
        def refuse(*args):
            raise AssertionError("a trial built user-major transcript data")
        monkeypatch.setattr(protocols, "_user_major", refuse)
        result = run_batch(cfg, trials=2, master_seed=3, sample_path=path)
        assert len(result.records) == 2 * len(cfg.mean_modes)
        assert result.audit_violations == []

    def test_trials_validation(self):
        with pytest.raises(ParameterError):
            run_batch(small_config(), trials=0)


class TestRecordsCsv:
    def test_golden(self, tmp_path):
        records = [TrialRecord(0, "null", "accept", 12, 3, 0),
                   TrialRecord(1, "spike", "reject", 12, 3, 0)]
        path = tmp_path / "out.csv"
        write_records_csv(records, str(path))
        assert path.read_bytes() == (
            b"trial,mean_mode,verdict,bits_total,public_bits_used,wall_micros\n"
            b"0,null,accept,12,3,0\n"
            b"1,spike,reject,12,3,0\n")

    def test_byte_identical_replay(self, tmp_path):
        cfg = small_config(mean_modes=["null", "spike"])
        paths = []
        for i in range(2):
            result = run_batch(cfg, trials=5, master_seed=9, timing=False)
            p = tmp_path / f"run{i}.csv"
            write_records_csv(result.records, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_matches_columns(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_records_csv([], str(p))
        assert p.read_text() == ",".join(CSV_COLUMNS) + "\n"


class TestCalibrate:
    @pytest.mark.parametrize("target", [0.0, -0.1, 0.5, 0.9])
    def test_target_range(self, target):
        with pytest.raises(ParameterError):
            calibrate(small_config(), target_error=target, trials=5)

    def test_doubles_until_target(self):
        base = PopulationConfig(d=4, epsilon=1.0, s=0, protocol="private",
                                users=[UserSpec(1, 4)] * 8,
                                mean_modes=["null", "spike"])
        result = calibrate(base, target_error=0.2, trials=120, master_seed=13)
        assert result.n_users == 8 * result.multiplier
        assert result.estimate.worst_rate <= 0.2
        # the reported estimate is the real measurement at the landing size
        check = estimate_error(base.scaled(result.multiplier), 120, master_seed=13)
        assert check.worst_rate == result.estimate.worst_rate
        expect_const = result.n_users * 1.0 * math.sqrt(4.0) / 4
        assert result.scaling_constant == pytest.approx(expect_const)

    def test_cap_failure(self):
        base = PopulationConfig(d=8, epsilon=0.5, s=0, protocol="private",
                                users=[UserSpec(1, 8)] * 8,
                                mean_modes=["null", "spike"])
        with pytest.raises(CalibrationFailedError):
            calibrate(base, target_error=0.001, trials=30, max_multiplier=2)

    def test_cap_failure_carries_audit_violations(self, monkeypatch):
        monkeypatch.setattr(harness, "budget_audit", lambda transcript, config: AuditReport(
            False, [f"user 0 sent 9 bits, budget {config.n_users()}"]))
        with pytest.raises(CalibrationFailedError) as failed:
            calibrate(small_config(), target_error=0.001, trials=20, max_multiplier=2)
        violations = failed.value.audit_violations
        assert violations[0] == "x1 mode=null trial=0: user 0 sent 9 bits, budget 32"
        assert violations[-1].startswith("x2 ") and violations[-1].endswith("budget 64")


class TestCentralizedCalibration:
    def test_spike_alternative_geometry(self):
        p = bpmt_spike_alternative(64, 0.75)
        assert np.linalg.norm(p - 0.5) == pytest.approx(0.75)
        assert p.max() <= 0.95 + 1e-12
        assert np.count_nonzero(p != 0.5) == 3

    def test_spike_too_wide(self):
        with pytest.raises(ParameterError):
            bpmt_spike_alternative(1, 1.0)

    def test_spread_alternative_geometry(self):
        p = bpmt_spread_alternative(16, 0.6)
        assert np.linalg.norm(p - 0.5) == pytest.approx(0.6)
        with pytest.raises(ParameterError):
            bpmt_spread_alternative(1, 0.6)

    def test_error_rates_replay(self):
        a = bpmt_error_rates(16, 0.75, n=32, trials=40, master_seed=5)
        b = bpmt_error_rates(16, 0.75, n=32, trials=40, master_seed=5)
        assert a == b
        assert set(a) == {"null", "spike", "spread"}

    def test_calibrate_bpmt_lands_below_cap(self):
        n = calibrate_bpmt(16, 1.0, target_error=0.2, trials=60, master_seed=3)
        assert n <= 64 * math.sqrt(16)
        rates = bpmt_error_rates(16, 1.0, n, trials=60, master_seed=3)
        assert max(rates.values()) <= 0.2

    def test_calibrate_bpmt_cap_failure(self):
        with pytest.raises(CalibrationFailedError):
            calibrate_bpmt(16, 0.3, target_error=0.01, cap=9.0, trials=40)


class TestEndToEndRates:
    def test_comfortable_population_never_errs(self):
        # 512 full-budget users at distance 1: both error rates sit dozens of
        # standard deviations from the threshold, so 200 trials see none.
        cfg = PopulationConfig(d=16, epsilon=1.0, s=0, protocol="private",
                               users=[UserSpec(1, 16)] * 512)
        est = estimate_error(cfg, trials=200, master_seed=17)
        assert est.worst_rate == 0.0, (est.type1_rate, est.type2_rates)


class TestLawStreams:
    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_streams_read_back_reproduce_the_referee(self, cfg):
        # the law path referees column counts and draws the bits on read;
        # refereeing the bits read back must give the same T and verdicts
        plan = cfg.plan
        for mode in ("null", "spike"):
            mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
            for trial in range(5):
                dec, tr = run_trial(cfg, mean, trial, master_seed=2, sample_path="law")
                streams = tr.streams
                assert len(streams) == len(dec.statistics) == len(plan.runs)
                for stream, total, t in zip(streams, plan.totals, dec.statistics):
                    assert stream.dtype == np.uint8 and stream.shape == (total,)
                    assert set(np.unique(stream).tolist()) <= {0, 1}
                    rows = total // plan.width
                    assert collision_statistic(
                        stream[:rows * plan.width].reshape(rows, plan.width)) == t
                accepts = tuple(t <= plan.tau for t in dec.statistics)
                assert accepts == (dec.repetition_accepts or (dec.verdict == ACCEPT,))
                assert dec.consistent() and budget_audit(tr, cfg).ok

    def test_ones_land_on_uniformly_random_rows(self):
        # private, spike of norm 1: coordinate 0 of every row is 1 with
        # probability Phi(1), the others with 1/2, whatever the row
        cfg = small_config(mean_modes=["null", "spike"])
        bits = np.array([run_trial(cfg, MeanSpec("spike", 1.0), trial, master_seed=4)[1].streams[0]
                         for trial in range(400)]).reshape(400, -1, cfg.d)
        freq = bits.mean(axis=0)                       # (rows, d)
        assert np.all(np.abs(freq[:, 0] - sign_flip_prob(1.0)) < 0.1)
        assert np.all(np.abs(freq[:, 1:] - 0.5) < 0.12)


# One sha256 per (structural config, path) over trials 0-2 x {null, spike} at
# master_seed=2: each transcript's serialize(), then the repr of its public
# bits used, verdict, repetition accepts and statistics.  Recorded with
# numpy 2.4.6; both paths draw from numpy's random streams, whose values a
# different numpy release may change.
TRANSCRIPT_DIGESTS = {
    ("private", "law"):
        "6fd81fb5553c535bc2a1da6b10d06a58796ef6a4979034d19811bb4e29f500ef",
    ("private", "literal"):
        "9ba664e0b7a56f775096127ca5a81445f615357391f882688a3f7f14ec40dc8a",
    ("limited", "law"):
        "802123a0a46ba65ce44e37252efeeb158f221a7a35d12da40f1c2985b9bd9d83",
    ("limited", "literal"):
        "077877c71fdcf88c13c62b11b83c20b6336d1038e95f46b67b10ad2d318c7b0e",
    ("hetero_samples", "law"):
        "57561f455dcb1a6965dbfbed9d0dd3f17e4fa633e375aae9fb118b5443934f24",
    ("hetero_samples", "literal"):
        "9ea55f51049db48b81c4f3c043d00a261b35dc8324d99f73bc38aebaeae65ff5",
    ("hetero_comm", "law"):
        "f381c08ed7e23aa67fbf4ca32dcf9d4eb7df5a734978f87b999797babb6adfec",
    ("hetero_comm", "literal"):
        "49e33c077785fcc3702907597827b21af7ea588afc698fc4db866c8f89eb0f1b",
    ("mix_and_match", "law"):
        "2e8b7e1ec7044a325b933f2cf17e770c086513f6ab9f7fe6f8538885703d5551",
    ("mix_and_match", "literal"):
        "f9b1d7e75d4efc9c64f44049703ab8d6ae0c8ffc82b5b54ffce7e2604b0016f8",
}


def wider_configs():
    """Wider layouts than `structural_configs`: transforms of d = 4096 and
    256, larger shares and keep lengths, a dimension that is padded, a
    trailing partial row, and an explicit partition with silent users and
    block sizes 1 to 3."""
    return {
        "limited-d4096": PopulationConfig(d=4096, epsilon=1.0, s=336, protocol="limited",
                                          users=[UserSpec(1, 8)] * 56),
        "limited-d256": PopulationConfig(d=256, epsilon=1.0, s=224, protocol="limited",
                                         users=[UserSpec(1, 2)] * 112),
        "hetero_samples-d64": PopulationConfig(
            d=64, epsilon=1.0, s=168, protocol="hetero_samples",
            users=[UserSpec(m, 28) for m in (7, 14, 21, 35)] * 4),
        "hetero_comm-d64": PopulationConfig(
            d=64, epsilon=1.0, s=140, protocol="hetero_comm",
            users=[UserSpec(1, ell) for ell in (7, 14, 28, 56)] * 8),
        "hetero_comm-d12": PopulationConfig(
            d=12, epsilon=1.0, s=84, protocol="hetero_comm",
            users=[UserSpec(1, ell) for ell in (7, 14, 21)] * 8),
        "mix_and_match-d64": PopulationConfig(
            d=64, epsilon=1.0, s=112, protocol="mix_and_match",
            users=[UserSpec(m, 15) for m in (7, 14, 9, 21, 8, 12, 7, 30)] * 3),
        "mix_and_match-partition": PopulationConfig(
            d=8, epsilon=1.0, s=28, protocol="mix_and_match",
            users=[UserSpec(m, 20) for m in (7, 14, 21, 28, 35, 42, 16)] * 2,
            partition=[[0, 7, 13], [1, 2, 3, 4], [5, 9, 10], [6, 8, 11, 12]]),
    }


# Digests of `wider_configs()`, taken as `TRANSCRIPT_DIGESTS` are.
WIDER_DIGESTS = {
    ("limited-d4096", "law"):
        "6009a4713cc7c11278ccf8c87b10b2fae9ceb043a858a882b580cd4a67028ea7",
    ("limited-d4096", "literal"):
        "47d6805e67d8c51a4edead6920471361cd5c71a5d83bf542231a047c57f6ebaa",
    ("limited-d256", "law"):
        "7c66b60dd2432a8e16ecd836776573d080999956ecd414468134f371569df9c0",
    ("limited-d256", "literal"):
        "e97440d6b270480516160fd42db9bce2fca100720e34f3ad9a1f128ef3ab992a",
    ("hetero_samples-d64", "law"):
        "f788c34acd4ad57da564c3d67eed912938f312585763c0f93debc5c00e3c765b",
    ("hetero_samples-d64", "literal"):
        "20296ef0261ed0a0294a214b7c81f1a6b3c36f3596d1921f815d02de08f79ccf",
    ("hetero_comm-d64", "law"):
        "4ff905d3d29ccae4d013190133bc676dec64f6d7324e8cedcf0233abec6eb14c",
    ("hetero_comm-d64", "literal"):
        "7c93fad99ee96e1ae77f5cca31e9478f345e6a596967941b546e729178bcce49",
    ("hetero_comm-d12", "law"):
        "1d704dbc2e0f61aa5777c3be904bbfd47905631d2b2839fe4bda045f540b7a09",
    ("hetero_comm-d12", "literal"):
        "4fedfbc9401e3a3c5e7ea53fc94bf41c7bb95d71f4ac03f4612dc1bdf5e986d5",
    ("mix_and_match-d64", "law"):
        "f53f31bb90da4c9923eb9c886d1b1c50c44edacee7535c26d38827520eaebcc0",
    ("mix_and_match-d64", "literal"):
        "e6f4c9fc108b5b0fb1b2439ad2b189428fe756d931785eb5ffe5c080ce550987",
    ("mix_and_match-partition", "law"):
        "196768d523fa69fc663aee708004a1eaa8b94e9757b836183dd810382f7c73b7",
    ("mix_and_match-partition", "literal"):
        "12a3a9204c80eb19f65b817d4016fe313d487a7678a13f4ae6c94f2cf190dae0",
}


# Digests of `structural_configs()` over the two modes whose means
# `TRANSCRIPT_DIGESTS` leaves out: spread, and random_direction, the only
# mode that reads the trial's mean stream.  Taken as `TRANSCRIPT_DIGESTS`
# are, over trials 0-2 x {spread, random_direction}.
MEAN_MODE_DIGESTS = {
    ("private", "law"):
        "ee8ac8d75611cd40d20ca36d2fa246a0aaff80f42f8e0c6091a9899ef48800ee",
    ("private", "literal"):
        "e134b7be9d0965a7d4b7bf5227f8dea86dcf1e24e178ca1863bd01bf032506ea",
    ("limited", "law"):
        "a20e6567a0e3c98c444ac4ba15fc94dd8bbf1d712c55878864a023a404b9fce7",
    ("limited", "literal"):
        "1f7e0c6a7a954598909482152e29c5d2ad3741ed68daf1b2972a8eef1e318276",
    ("hetero_samples", "law"):
        "a64cdd3adc836f8c21fb866d900cab35c24f7035be3689fcaccb724ae599285e",
    ("hetero_samples", "literal"):
        "b144d6aa68276edbdcb2b2c10694e7acf5cf255f4651d807ceb5f3f8d4a8efc0",
    ("hetero_comm", "law"):
        "7d64ab6514c92e35d78765e7784fdafe80044cd6eaf6fa4e650509d413f72201",
    ("hetero_comm", "literal"):
        "2baf3cf316f25e24686f75bdafb75225d15d9100d71e58869e9553c117fc3df7",
    ("mix_and_match", "law"):
        "85f0df6681b434b194abe784072c875b0008804883549947240cba353b8723fc",
    ("mix_and_match", "literal"):
        "d8d487c0418a5078905a83a5890f92e882a1a822bc6853923a80e341f32be3d6",
}


def transcript_digest(cfg, path, modes=("null", "spike")):
    h = hashlib.sha256()
    for mode in modes:
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        for trial in range(3):
            dec, tr = run_trial(cfg, mean, trial, master_seed=2, sample_path=path)
            h.update(tr.serialize())
            h.update(repr((tr.public_bits_used, dec.verdict, dec.repetition_accepts,
                           dec.statistics)).encode())
    return h.hexdigest()


class TestTranscriptDigests:
    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_transcripts_are_byte_stable(self, cfg, path):
        assert transcript_digest(cfg, path) == TRANSCRIPT_DIGESTS[cfg.protocol, path]

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("name", list(wider_configs()))
    def test_wider_transcripts_are_byte_stable(self, name, path):
        assert transcript_digest(wider_configs()[name], path) == WIDER_DIGESTS[name, path]

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_spread_and_random_direction_transcripts_are_byte_stable(self, cfg, path):
        digest = transcript_digest(cfg, path, modes=("spread", "random_direction"))
        assert digest == MEAN_MODE_DIGESTS[cfg.protocol, path]


def limited_d64(s):
    # d = 64 and s >= 168 give d_s = 1: seven 64-sign transforms, 168 bits
    return PopulationConfig(d=64, epsilon=1.0, s=s, protocol="limited",
                            users=[UserSpec(1, 4)] * 448)


class TestSeedBitsDrawn:
    """A trial draws only the seed bits its transforms read, whatever s is."""

    def test_run_trial_requests_only_the_plan_bits(self, monkeypatch):
        sizes = []
        real = PublicSeed.random.__func__

        def recording(cls, s, rng):
            sizes.append(s)
            assert s <= 1 << 12, f"a trial asked for {s} seed bits"   # never allocate s
            return real(cls, s, rng)

        monkeypatch.setattr(PublicSeed, "random", classmethod(recording))
        for path in ("law", "literal"):
            _, tr = run_trial(limited_d64(10**12), MeanSpec("spike", 1.0), 0, sample_path=path)
            assert tr.public_bits_used == 168
        # plans without seed-drawing transforms build no public stream
        for cfg in (small_config(s=10**12), limited_d64(27)):
            assert run_trial(cfg, MeanSpec("null", 0.0), 0)[1].public_bits_used == 0
        assert sizes == [168, 168]

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("cfg", [limited_d64(168), structural_configs()[2]],
                             ids=["limited", "hetero_samples"])
    def test_transcripts_do_not_depend_on_unread_seed_bits(self, cfg, path):
        wide = dataclasses.replace(cfg, s=10**7)
        assert wide.plan.seed_bits == cfg.plan.seed_bits <= cfg.s
        assert transcript_digest(wide, path) == transcript_digest(cfg, path)


class TestStatisticsMatchOracle:
    # transforms that draw no seed bit fix the rotation, so each
    # repetition's T has the oracle's closed-form mean
    TRIALS = 150

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("mode", ["null", "spike"])
    def test_private(self, path, mode):
        cfg = small_config(mean_modes=["null", "spike"])          # 32 rows of d = 8
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        mu = make_mean(mean, cfg.d, np.random.default_rng(0))
        oracle = bpmt_moments_oracle(np.array([sign_flip_prob(v) for v in mu]), 32)
        self._check(cfg, mean, path, oracle)

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("mode", ["null", "spike"])
    def test_hetero_samples(self, path, mode):
        # ell = 7d gives share = d: one (d, d) transform per repetition, no seed bit
        d = 8
        ms = np.array([7, 14, 21] * 8)
        cfg = PopulationConfig(d=d, epsilon=1.0, s=0, protocol="hetero_samples",
                               users=[UserSpec(int(m), 7 * d) for m in ms],
                               mean_modes=["null", "spike"])
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        mu = make_mean(mean, d, np.random.default_rng(0))
        spec = sample_brht(PublicSeed.random(0, np.random.default_rng(0)), d, d)
        assert spec.bits_consumed == 0
        mu_rot = brht_apply(spec, mu)
        p = np.array([[sign_flip_prob(np.sqrt(m // 7) * v) for v in mu_rot] for m in ms])
        self._check(cfg, mean, path, bpmt_moments_oracle(p, ms.shape[0]))

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("mode", ["null", "spike"])
    def test_limited(self, path, mode):
        # s = 0 gives (d, d) transforms; each cohort of 64 users sending
        # ell = 4 bits fills 32 rows of d = 8
        d = 8
        cfg = PopulationConfig(d=d, epsilon=1.0, s=0, protocol="limited",
                               users=[UserSpec(1, 4)] * 448, mean_modes=["null", "spike"])
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        p = sign_flip_prob(self._rotated_mean(mean, d))
        self._check(cfg, mean, path, bpmt_moments_oracle(p, 32))

    @pytest.mark.parametrize("path", ["law", "literal"])
    @pytest.mark.parametrize("mode", ["null", "spike"])
    def test_mix_and_match(self, path, mode):
        # 96 distinct m with ell = 15 and L = d = 8 form 24 groups of four
        # users in descending m; group k sends one row per repetition, each
        # user aggregating blocks of floor(min m_k / 7) samples
        d = 8
        ms = 7 + 2 * np.arange(96)
        cfg = PopulationConfig(d=d, epsilon=1.0, s=0, protocol="mix_and_match",
                               users=[UserSpec(int(m), 15) for m in ms],
                               mean_modes=["null", "spike"])
        mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
        group_min_m = ms[::-1].reshape(24, 4).min(axis=1)
        p = sign_flip_prob(np.sqrt(group_min_m // 7)[:, None] * self._rotated_mean(mean, d))
        self._check(cfg, mean, path, bpmt_moments_oracle(p, 24))

    @pytest.mark.parametrize("path", ["law", "literal"])
    def test_hetero_samples_unequal_groups(self, path):
        # blocks of 1, 2 and 3 samples over 16, 4 and 4 rows: unlike groups of
        # equal rows, a law that gives one group another group's flip
        # probabilities moves the mean of T
        d = 8
        ms = np.array([7] * 16 + [14] * 4 + [21] * 4)
        cfg = PopulationConfig(d=d, epsilon=1.0, s=0, protocol="hetero_samples",
                               users=[UserSpec(int(m), 7 * d) for m in ms],
                               mean_modes=["null", "spike"])
        assert cfg.plan.group_rows.tolist() == [16, 4, 4]
        mean = MeanSpec("spike", cfg.epsilon)
        p = sign_flip_prob(np.sqrt(ms // 7)[:, None] * self._rotated_mean(mean, d))
        self._check(cfg, mean, path, bpmt_moments_oracle(p, ms.shape[0]))

    @staticmethod
    def _rotated_mean(mean, d):
        """The trial mean under the (d, d) transform, which draws no seed bit."""
        spec = sample_brht(PublicSeed.random(0, np.random.default_rng(0)), d, d)
        assert spec.bits_consumed == 0
        return brht_apply(spec, make_mean(mean, d, np.random.default_rng(0)))

    def _check(self, cfg, mean, path, oracle):
        stats = np.concatenate([
            run_trial(cfg, mean, trial, master_seed=6, sample_path=path)[0].statistics
            for trial in range(self.TRIALS)])
        tolerance = 4.0 * math.sqrt(oracle.var_bound / stats.shape[0])
        assert abs(stats.mean() - oracle.mean_t) <= tolerance, (stats.mean(), oracle.mean_t)


class TestVerdictsMeetThePaperThreshold:
    def test_private(self):
        # one repetition at tau = (epsilon/sqrt(8))^2 / 2 = epsilon^2 / 16,
        # computed here from the paper's formula: the trial accepts iff its T
        # is at most tau.  Some T equal 1/16, the exact tau at epsilon = 1
        cfg = structural_configs()[0]
        tau = cfg.epsilon ** 2 / 16
        near = 0
        for mode, trial in itertools.product(cfg.mean_modes, range(300)):
            mean = MeanSpec(mode, 0.0 if mode == "null" else cfg.epsilon)
            decision = run_trial(cfg, mean, trial, master_seed=7)[0]
            assert (decision.verdict == ACCEPT) == all(t <= tau for t in decision.statistics)
            near += sum(tau < t <= 1.1 * tau for t in decision.statistics)
        # statistics just past tau, so a threshold 10% too high shows
        assert near > 0

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.25])
    def test_sign_test_threshold_is_exact(self, epsilon):
        assert protocols.sign_test_threshold(epsilon) == epsilon * epsilon / 16

    @pytest.mark.parametrize("mode, trial", [("spike", 44), ("spike", 119),
                                             ("random_direction", 285)])
    def test_statistic_at_tau_accepts(self, mode, trial):
        # T is exactly 1/16 = tau(1) on these trials; ties accept
        cfg = structural_configs()[0]
        decision = run_trial(cfg, MeanSpec(mode, cfg.epsilon), trial, master_seed=7)[0]
        assert cfg.epsilon == 1.0 and decision.statistics == (1 / 16,)
        assert decision.verdict == ACCEPT


class TestFlipProbs:
    """`flip_probs`, the law-path bit law, against the law written out
    coordinate by coordinate: p[r, g, c] is `sign_flip_prob` of
    sqrt(block of group g) times coordinate c of the mean under transform r."""

    @pytest.mark.parametrize("cfg", structural_configs(),
                             ids=[c.protocol for c in structural_configs()])
    def test_matches_the_law_elementwise(self, cfg):
        plan, rng = cfg.plan, np.random.default_rng(3)
        mu = np.zeros(plan.d)
        mu[:cfg.d] = make_mean(MeanSpec("random_direction", cfg.epsilon), cfg.d, rng)
        spec = None if plan.block is None else sample_brht(
            PublicSeed.random(plan.seed_bits, rng), plan.d, plan.block, len(plan.totals))
        expected = np.empty((len(plan.totals), len(plan.group_rows), plan.width))
        for r in range(expected.shape[0]):
            rotated = mu if spec is None else brht_apply(
                BrhtSpec(spec.d, spec.L, spec.b, spec.signs[r]), mu, keep=plan.width)
            for g, c in itertools.product(range(expected.shape[1]), range(plan.width)):
                expected[r, g, c] = sign_flip_prob(math.sqrt(plan.group_sizes[g]) * rotated[c])
        p = protocols.flip_probs(plan, mu, spec)
        assert p.shape == expected.shape
        assert p.tobytes() == expected.tobytes()


def calibrate_oracle(config, target_error, trials, master_seed, max_multiplier=MAX_MULTIPLIER):
    """`calibrate` as a doubling loop in which every candidate runs its full
    batch: (multiplier, n_users, estimate, scaling constant) of the landing
    point, or None past the cap, and each candidate's records by multiplier."""
    records = {}
    multiplier = 1
    while multiplier <= max_multiplier:
        candidate = config.scaled(multiplier)
        batch = run_batch(candidate, trials, master_seed, timing=False)
        records[multiplier] = batch.records
        if batch.estimate.worst_rate <= target_error:
            n = candidate.n_users()
            constant = n * config.epsilon ** 2 * math.sqrt(float(candidate.ells().mean())) / config.d
            return (multiplier, n, batch.estimate, constant), records
        multiplier *= 2
    return None, records


def failure_certain(records, trials, target_error):
    """(records run, mode) at the first record of a full batch after which
    some mode's wrong / trials exceeds target_error, or None."""
    wrong = Counter()
    for i, r in enumerate(records):
        wrong[r.mean_mode] += (r.verdict == REJECT) if r.mean_mode == "null" else (r.verdict == ACCEPT)
        if wrong[r.mean_mode] / trials > target_error:
            return i + 1, r.mean_mode
    return None


# a private population whose small copies fail first in the null mode
COARSE = PopulationConfig(d=8, epsilon=0.5, s=0, protocol="private", users=[UserSpec(1, 8)] * 8,
                          mean_modes=["null", "spike"])
# one whose first copy passes the null mode and fails the spike
FINE = PopulationConfig(d=4, epsilon=1.0, s=0, protocol="private", users=[UserSpec(1, 4)] * 8,
                        mean_modes=["null", "spike"])


class TestCalibrateEarlyStop:
    """A candidate stops at the first trial that makes its failure certain;
    the doubling loop over full batches is the oracle."""

    CASES = {
        "null-fails-first": (COARSE, dict(target_error=0.001, trials=30, master_seed=0,
                                          max_multiplier=64), "null"),
        "alternative-fails": (FINE, dict(target_error=0.2, trials=120, master_seed=13), "spike"),
        "cap": (COARSE, dict(target_error=0.001, trials=30, master_seed=0, max_multiplier=8),
                "null"),
        "calibrate_mix-sixteenth": (sixteenth("calibrate_mix"),
                                    dict(target_error=0.1, trials=10, master_seed=5), "null"),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_equals_full_batches(self, name, monkeypatch):
        config, kwargs, first_failing_mode = self.CASES[name]
        want, records = calibrate_oracle(config, **kwargs)
        trials, target = kwargs["trials"], kwargs["target_error"]
        stops = {m: failure_certain(r, trials, target) for m, r in records.items()}
        assert stops[1][1] == first_failing_mode
        # a failing candidate runs up to the trial that makes failure certain,
        # the winner every trial of every mode
        expect = {m: (stop[0] if stop else trials * len(config.mean_modes), bool(stop))
                  for m, stop in stops.items()}

        ran = Counter()
        real = harness.run_trial

        def counting(cfg, *args):
            ran[cfg.n_users() // config.n_users()] += 1
            return real(cfg, *args)

        monkeypatch.setattr(harness, "run_trial", counting)
        if want is None:
            with pytest.raises(CalibrationFailedError):
                calibrate(config, **kwargs)
        else:
            got = calibrate(config, **kwargs)
            assert (got.multiplier, got.n_users, got.estimate, got.scaling_constant) == want
            assert [(c.multiplier, c.n_users, c.trials_run, c.stopped_early)
                    for c in got.candidates] == [
                (m, config.n_users() * m, count, stopped) for m, (count, stopped) in expect.items()]
        assert dict(ran) == {m: count for m, (count, _) in expect.items()}

    def test_calibrate_mix_candidates(self):
        config = PopulationConfig.from_json_file(str(BENCH_CONFIGS / "calibrate_mix.json"))
        result = calibrate(config, 0.1, trials=10, master_seed=5, max_multiplier=64)
        assert [(c.multiplier, c.trials_run, c.stopped_early) for c in result.candidates] == [
            (1, 2, True), (2, 3, True), (4, 3, True), (8, 4, True), (16, 40, False)]
        assert result.multiplier == 16 and result.estimate.worst_rate == 0.0

    def test_plan_is_built_before_the_first_trial(self, monkeypatch):
        # an infeasible candidate raises from its plan, with no trial run
        def refuse(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(harness, "run_trial", refuse)
        short = PopulationConfig(d=8, epsilon=1.0, s=0, protocol="mix_and_match",
                                 users=[UserSpec(7, 8)] * 6)
        with pytest.raises(InfeasiblePartitionError):
            calibrate(short, 0.1, trials=3)

    def test_violations_of_every_trial_that_ran(self, monkeypatch):
        monkeypatch.setattr(harness, "budget_audit",
                            lambda transcript, config: AuditReport(False, ["user 0 sent 9 bits"]))
        result = calibrate(COARSE, 0.001, trials=30, master_seed=0, max_multiplier=64)
        assert any(c.stopped_early for c in result.candidates)
        assert len(result.audit_violations) == sum(c.trials_run for c in result.candidates)
        assert result.audit_violations[0] == "x1 mode=null trial=0: user 0 sent 9 bits"

    @pytest.mark.parametrize("kwargs, named", [
        (dict(max_multiplier=0), "max_multiplier must be >= 1, got 0"),
        (dict(max_multiplier=-4), "max_multiplier must be >= 1, got -4"),
        (dict(trials=0), "trials must be >= 1, got 0"),
    ])
    def test_bad_arguments_rejected_before_any_candidate(self, kwargs, named, monkeypatch):
        def refuse(*args):
            raise AssertionError("a candidate was built")
        monkeypatch.setattr(PopulationConfig, "scaled", refuse)
        with pytest.raises(ParameterError, match=named):
            calibrate(small_config(), 0.1, **kwargs)


# sha256 of every (users, lengths) run of a mix_and_match plan as int64
# bytes, recorded when `mix_and_match_plan` still built its runs up front
MIX_RUNS_DIGESTS = {
    "structural": "0d378013b6d49627976e27b8a8922813bd583d4e153948ce74d046e504dcea5b",
    "mix_and_match-d64": "55b06d36b68a309a714332b40e18af71f1c21d7140b340e37c32d691e371baf4",
    "mix_and_match-partition": "6bc818566e8962140643b71819456fff98d207e29face595f3883fde53494b43",
    "mix_and_match-partition-x3":
        "458afd94088e0fe93c006f45244af36984cf5395244f9d1fb2269149fc0b1069",
    "bench-mix_and_match": "f4c576d37982901a328277aaaefbfcdf1dcc9f76a038c7ce3993b7a9110776a9",
    "bench-calibrate_mix": "ad21c83667a2e416e915d71e93b0510a20a10d5fefb2483fa19debdaef8e1e30",
}


def mix_configs():
    """Every mix_and_match config of `structural_configs()` and
    `wider_configs()`, the explicit partition scaled, and the two bench mix
    shapes at a sixteenth of their counts."""
    wider = wider_configs()
    return {"structural": structural_configs()[4],
            "mix_and_match-d64": wider["mix_and_match-d64"],
            "mix_and_match-partition": wider["mix_and_match-partition"],
            "mix_and_match-partition-x3": wider["mix_and_match-partition"].scaled(3),
            "bench-mix_and_match": sixteenth("mix_and_match"),
            "bench-calibrate_mix": sixteenth("calibrate_mix")}


class TestDeferredRuns:
    """A mix_and_match plan states its lengths and totals and builds its
    runs on first read."""

    @pytest.mark.parametrize("name", list(MIX_RUNS_DIGESTS))
    def test_law_trials_leave_runs_unbuilt(self, name, monkeypatch):
        # a layout derives or checks lengths and totals wherever it takes
        # runs, when built or when they are first read
        built = []
        derive = protocols._lengths_and_totals
        monkeypatch.setattr(protocols, "_lengths_and_totals",
                            lambda runs, n_users: built.append(n_users) or derive(runs, n_users))
        cfg = mix_configs()[name]
        result = run_batch(cfg, trials=2, master_seed=3)
        assert result.audit_violations == [] and built == []
        h = hashlib.sha256()
        for users, sent in cfg.plan.runs:
            h.update(users.astype(np.int64).tobytes() + sent.astype(np.int64).tobytes())
        assert built == [cfg.n_users()] and h.hexdigest() == MIX_RUNS_DIGESTS[name]
        lengths = np.zeros(cfg.n_users(), dtype=np.int64)
        for users, sent in cfg.plan.runs:
            np.add.at(lengths, users, sent)
        assert np.array_equal(lengths, cfg.plan.lengths)
        assert tuple(int(sent.sum()) for _, sent in cfg.plan.runs) == cfg.plan.totals

    @pytest.mark.parametrize("name", ["mix_and_match-partition", "bench-calibrate_mix"])
    def test_transcript_data_builds_runs(self, name):
        # the literal source and a transcript's data read the runs; the
        # messages are the ones of the plan's runs
        cfg = mix_configs()[name]
        _, tr = run_trial(cfg, MeanSpec("spike", 1.0), 0, master_seed=2)
        assert tr.data.shape[0] == tr.total_bits == sum(cfg.plan.totals)
        _, lit = run_trial(cfg, MeanSpec("spike", 1.0), 0, master_seed=2, sample_path="literal")
        assert lit.serialize()

    RUNS = [(np.array([0, 1]), np.array([3, 2])), (np.array([1]), np.array([4]))]

    def test_builder_matching_its_statement(self):
        layout = protocols.Layout(lambda: self.RUNS, 2, totals=(5, 4), bounds=([3, 6], [1, 1]))
        assert layout.runs is layout.runs
        assert layout.offsets.tolist() == [0, 3, 9]

    @pytest.mark.parametrize("lengths, totals", [([3, 5], (5, 3)), ([2, 7], (5, 4)),
                                                 ([3, 6], (6, 3))])
    def test_builder_disagreeing_with_its_statement_rejected(self, lengths, totals):
        layout = protocols.Layout(lambda: self.RUNS, 2, totals=totals, bounds=(lengths, [1, 1]))
        with pytest.raises(ParameterError, match="stated per-user lengths"):
            layout.runs
