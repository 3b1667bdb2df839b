"""Acceptance gate: eleven numbered criteria, one printed verdict line each.

Criteria 8/9/11 share state through the module-level ``_shared`` dict, so this
module is meant to run as a whole (plain ``pytest`` does that; the numbered
names keep execution order).  Every criterion asserts its own wall-clock
budget.
"""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from distmeantest import (
    PopulationConfig,
    PublicSeed,
    UserSpec,
    bpmt_error_rates,
    bpmt_moments_oracle,
    brht_apply,
    calibrate,
    calibrate_bpmt,
    compression_probe,
    fourwise_rademacher,
    fwht,
    hetero_pair_weight,
    run_batch,
    sample_brht,
    write_records_csv,
)
from distmeantest.cli import main as cli_main
from oracles import naive_hadamard_apply

_shared: dict = {}


def _report(k: int, elapsed: float, limit: float | None, detail: str) -> None:
    budget = f"{elapsed:.1f}s" if limit is None else f"{elapsed:.1f}s < {limit:g}s"
    print(f"criterion {k}: PASS — {detail} [{budget}]")


def _enumerate_seed_signs(b: int) -> np.ndarray:
    """(seed-space, b) matrix of block signs for every seed value."""
    bits = 4 * int(b - 1).bit_length()
    rows = []
    for value in range(1 << bits):
        rows.append(fourwise_rademacher(PublicSeed.from_int(value, bits), b).signs)
    return np.array(rows, dtype=np.int64)


def test_criterion_01_fwht_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    dims = [1 << k for k in range(9)]           # 1 .. 256
    for d in dims:
        for _ in range(20):
            x = rng.standard_normal(d)
            err = float(np.max(np.abs(fwht(x) - naive_hadamard_apply(x))))
            worst = max(worst, err)
            assert err <= 1e-9, f"d={d}: fwht deviates from dense oracle by {err}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, elapsed, 5, f"{len(dims)} dimensions x 20 vectors, max |diff| = {worst:.2e}")


def test_criterion_02_brht_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(0, 11))            # d up to 1024
        d = 1 << k
        L = 1 << int(rng.integers(0, k + 1))
        seed = PublicSeed.random(4 * (k + 1), rng)
        spec = sample_brht(seed, d, L)
        x = rng.standard_normal(d)
        ratio = np.linalg.norm(brht_apply(spec, x, keep=d)) / np.linalg.norm(x)
        worst = max(worst, abs(ratio - 1.0))
        assert abs(ratio - 1.0) <= 1e-9, f"d={d} L={L}: |ratio-1| = {abs(ratio - 1.0)}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, elapsed, 5, f"1000 random (spec, x) pairs, max |ratio-1| = {worst:.2e}")


def test_criterion_03_exhaustive_fourwise_independence():
    t0 = time.perf_counter()
    checked = 0
    for b in (2, 4, 8):
        signs = _enumerate_seed_signs(b)
        for order in (1, 2, 4):
            for combo in itertools.combinations(range(b), order):
                total = int(np.prod(signs[:, combo], axis=1).sum())
                checked += 1
                assert total == 0, f"b={b} indices={combo}: moment sum {total} != 0"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, elapsed, 10,
            f"b in (2,4,8) full seed spaces, {checked} distinct-index moments all integer-zero")


def test_criterion_04_compression_moments_exhaustive():
    t0 = time.perf_counter()
    d, L, b = 64, 8, 8
    bits = 12                                   # 4 * log2(b) -> 4096 seeds
    rng = np.random.default_rng(104)
    specs = [sample_brht(PublicSeed.from_int(v, bits), d, L) for v in range(1 << bits)]
    worst_rel = 0.0
    for mu_index in range(5):
        mu = rng.standard_normal(d)
        rho2 = float(mu @ mu)
        for t in (1, 2, 4):
            zs = np.array([compression_probe(spec, mu, t).z for spec in specs])
            mean_target = t * rho2 / b
            rel = abs(float(zs.mean()) - mean_target) / mean_target
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-9, f"mu#{mu_index} t={t}: E[Z] rel err {rel}"
            second_bound = 3.0 * t * t * rho2 * rho2 / (b * b)
            assert float((zs ** 2).mean()) <= second_bound * (1 + 1e-9), \
                f"mu#{mu_index} t={t}: E[Z^2] {float((zs ** 2).mean())} > {second_bound}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, elapsed, 30,
            f"4096 seeds x 5 means x t in (1,2,4), worst E[Z] rel err = {worst_rel:.2e}")


def test_criterion_05_compression_anti_concentration():
    t0 = time.perf_counter()
    d, L, trials = 256, 16, 2000
    rng = np.random.default_rng(105)
    mu = rng.standard_normal(d)
    mu /= np.linalg.norm(mu)
    hits = 0
    for _ in range(trials):
        seed = PublicSeed.random(4 * 4, rng)    # b = 16 blocks
        spec = sample_brht(seed, d, L)
        hits += int(compression_probe(spec, mu, t=1).exceeds_threshold)
    rate = hits / trials
    assert rate >= 0.30, f"P(Z > L||mu||^2/(100 d)) = {rate} < 0.30"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(5, elapsed, 30, f"{trials} sampled seeds, retention rate = {rate:.3f} >= 0.30")


def test_criterion_06_collision_moments_exact():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    half = Fraction(1, 2)
    for profile in range(20):
        n = int(rng.integers(2, 7))
        sign = 1 if rng.random() < 0.5 else -1
        ptilde = [sign * Fraction(int(v), 128) for v in rng.integers(1, 56, size=n)]
        probs = [half + pt for pt in ptilde]

        # exhaustive outcome enumeration in exact rational arithmetic
        mean = Fraction(0)
        second = Fraction(0)
        for bits in itertools.product((0, 1), repeat=n):
            weight = Fraction(1)
            for bit, p in zip(bits, probs):
                weight *= p if bit else 1 - p
            ones = sum(bits)
            t_value = Fraction((2 * ones - n) ** 2 - n, 4 * n * (n - 1))
            mean += weight * t_value
            second += weight * t_value * t_value
        variance = second - mean * mean

        col = sum(ptilde)
        pair_sum = col * col - sum(pt * pt for pt in ptilde)
        closed_mean = Fraction(pair_sum, n * (n - 1))
        bound = (Fraction(n * (n - 1), 8) + (n - 2) * pair_sum) / (n * (n - 1)) ** 2
        assert mean == closed_mean, \
            f"profile {profile} (n={n}): exact E[T] {mean} != closed form {closed_mean}"
        assert variance <= bound, \
            f"profile {profile} (n={n}): Var {variance} > bound {bound}"

        # the shipped float oracle agrees with the exact rationals
        oracle = bpmt_moments_oracle(
            np.array([[float(p)] for p in probs]), n=n)
        assert oracle.mean_t == pytest.approx(float(closed_mean), abs=1e-12)
        assert oracle.var_bound == pytest.approx(float(bound), rel=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, elapsed, 30, "20 same-sign profiles (n <= 6): exact mean match, Var <= bound")


def test_criterion_07_centralized_bpmt_calibrated():
    t0 = time.perf_counter()
    d, eps = 64, 0.75
    cap = 64.0 * np.sqrt(d) / (eps * eps)
    n = calibrate_bpmt(d, eps, target_error=0.05, trials=500, master_seed=0)
    assert n <= cap, f"calibrated n={n} exceeds cap {cap:.0f}"
    rates = bpmt_error_rates(d, eps, n, trials=500, master_seed=0)
    for name, rate in rates.items():
        assert rate <= 0.05, f"{name} rate {rate} > 0.05 at n={n}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(7, elapsed, 120,
            f"n={n} <= {cap:.0f}; rates over 500 trials: " +
            ", ".join(f"{k}={v:.3f}" for k, v in sorted(rates.items())))


def _desk_verify(name: str, config: PopulationConfig, budget: dict) -> float:
    """300-trial batch for one desk-scale config; returns the worst rate."""
    t0 = time.perf_counter()
    batch = run_batch(config, trials=300, master_seed=11, timing=False)
    budget[name] = time.perf_counter() - t0
    _shared["violations"].extend(batch.audit_violations)
    _shared["batches"][name] = batch
    est = batch.estimate
    assert est.worst_rate <= 0.15, (
        f"{name}: worst rate {est.worst_rate} > 0.15 "
        f"(type1={est.type1_rate}, type2={est.type2_rates})")
    return est.worst_rate


def test_criterion_08_desk_scale_protocol_error():
    t0 = time.perf_counter()
    _shared["violations"] = []
    _shared["batches"] = {}
    budget: dict = {}
    worst: dict = {}

    private_cfg = PopulationConfig(
        d=64, epsilon=1.0, s=0, protocol="private", users=[UserSpec(1, 8)] * 2048)
    worst["private"] = _desk_verify("private", private_cfg, budget)
    _shared["private_config"] = private_cfg
    _shared["private_records"] = _shared["batches"]["private"].records

    # limited-coin: calibrate at s=0 and s = 28*log2(d/ell) = 84, then verify
    limited_n = {}
    for s in (0, 84):
        base = PopulationConfig(
            d=64, epsilon=1.0, s=s, protocol="limited", users=[UserSpec(1, 8)] * 6272)
        result = calibrate(base, target_error=0.08, trials=150, master_seed=7)
        limited_n[s] = result.n_users
        worst[f"limited_s{s}"] = _desk_verify(
            f"limited_s{s}", base.scaled(result.multiplier), budget)
    assert limited_n[84] <= limited_n[0], \
        f"shared randomness should not hurt: n(s=84)={limited_n[84]} > n(s=0)={limited_n[0]}"

    hetero_m_cfg = PopulationConfig(
        d=16, epsilon=1.0, s=84, protocol="hetero_samples",
        users=[UserSpec(m, 16) for m in (7, 14, 28)] * 32000)
    worst["hetero_samples"] = _desk_verify("hetero_samples", hetero_m_cfg, budget)

    hetero_c_cfg = PopulationConfig(
        d=32, epsilon=1.0, s=140, protocol="hetero_comm",
        users=[UserSpec(1, ell) for ell in (8, 16, 32)] * 48000)
    worst["hetero_comm"] = _desk_verify("hetero_comm", hetero_c_cfg, budget)

    mix_cfg = PopulationConfig(
        d=32, epsilon=1.0, s=28, protocol="mix_and_match",
        users=[UserSpec(m, ell)
               for m, ell in [(28, 8), (56, 16), (28, 24), (56, 8), (28, 16), (56, 24)]
               ] * 25500)
    worst["mix_and_match"] = _desk_verify("mix_and_match", mix_cfg, budget)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s (budget 600s); per-config {budget}"
    _report(8, elapsed, 600,
            "six configs x 300 trials x 4 modes, worst rates: " +
            ", ".join(f"{k}={v:.3f}" for k, v in worst.items()) +
            f"; limited n: s84={limited_n[84]} <= s0={limited_n[0]}")


def test_criterion_09_zero_audit_violations():
    if "violations" not in _shared:
        pytest.skip("criterion 8 results unavailable (run the full acceptance module)")
    audited = sum(len(b.records) for b in _shared["batches"].values())
    assert _shared["violations"] == [], _shared["violations"][:10]
    _report(9, 0.0, None,
            f"{audited} desk-scale transcripts audited, 0 budget or seed violations")


def test_criterion_10_balanced_allocation_dominates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    for pair in range(50):
        n = int(rng.integers(2, 21))
        total = int(rng.integers(n, n * 200))
        base, rem = divmod(total, n)
        balanced = np.array([base + 1] * rem + [base] * (n - rem))
        cuts = np.sort(rng.choice(np.arange(1, total), size=n - 1, replace=False))
        unbalanced = np.diff(np.concatenate([[0], cuts, [total]]))
        assert balanced.sum() == unbalanced.sum() == total
        n_bal = hetero_pair_weight(balanced, block_floor=False)
        n_unb = hetero_pair_weight(unbalanced, block_floor=False)
        assert n_bal >= n_unb - 1e-9 * max(1.0, n_unb), \
            f"pair {pair}: n={n} total={total}: balanced {n_bal} < split {n_unb}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(10, elapsed, 1, "50 random (n, total-m) pairs, balanced weight always >= split")


def test_criterion_11_byte_identical_replay(tmp_path, capsys):
    if "private_config" not in _shared:
        pytest.skip("criterion 8 results unavailable (run the full acceptance module)")
    t0 = time.perf_counter()
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(_shared["private_config"].to_dict()))
    outputs = []
    for i in range(2):
        out = tmp_path / f"replay{i}.csv"
        code = cli_main(["run", "--config", str(config_path), "--trials", "300",
                         "--seed", "11", "--no-timing", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "two CLI replays disagree"

    # and both equal the records criterion 8 produced in-process
    recorded = tmp_path / "from_batch.csv"
    write_records_csv(_shared["private_records"], str(recorded))
    assert recorded.read_bytes() == outputs[0], "CLI replay differs from criterion-8 records"
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, None,
            f"criterion-8 first config replayed twice via CLI, {len(outputs[0])} CSV bytes identical")
