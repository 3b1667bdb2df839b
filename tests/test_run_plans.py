"""Plans stated per run of alike users: the greedy walk over runs, the
threshold, rows and groups it states, the most each run sends, and the
per-user and per-row arrays that stay unbuilt on the law path."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from distmeantest import (
    REPETITIONS,
    InfeasiblePartitionError,
    ParameterError,
    PopulationConfig,
    UserRuns,
    greedy_partition,
    hetero_pair_weight,
    hetero_threshold,
    run_batch,
)
from distmeantest.harness import _overdrawn_users
from distmeantest.protocols import Layout, _clipped_budgets, mix_and_match_plan
from test_harness import structural_configs, wider_configs
from test_protocols import greedy_oracle

BENCH_CONFIGS = Path(__file__).resolve().parent.parent / "bench" / "configs"


def bench_config(name: str) -> PopulationConfig:
    return PopulationConfig.from_json_file(str(BENCH_CONFIGS / f"{name}.json"))


def scale_base(name: str) -> PopulationConfig:
    """A bench config, or a private one of 1,000 users at d = 8."""
    if name == "private-d8":
        return PopulationConfig(d=8, epsilon=1.0, s=0, protocol="private",
                                users=UserRuns([1], [8], [1000]))
    return bench_config(name)


def random_runs(rng: np.random.Generator, L: int) -> UserRuns:
    """Up to 40 runs of 1 to 30 users, in pairs of neighbours that share a
    budget clipped at 7L (both at or past it, or equal) but differ in m."""
    m, ell = [], []
    for _ in range(int(rng.integers(1, 20))):
        budget = int(rng.integers(1, 9 * L + 1))
        clipped = [budget, budget] if budget < 7 * L else [budget, 7 * L + int(rng.integers(5))]
        a, b = rng.choice(np.arange(7, 30), 2, replace=False).tolist()
        m += [a, b]
        ell += clipped
    return UserRuns(m, ell, rng.integers(1, 31, len(m)))


def mix_config(users: UserRuns, d: int = 16) -> PopulationConfig:
    return PopulationConfig(d=d, epsilon=1.0, s=0, protocol="mix_and_match", users=users)


def structural_plans() -> dict[str, PopulationConfig]:
    """One config of each run-form plan, with several runs each."""
    rng = np.random.default_rng(7)
    return {
        "hetero_samples": PopulationConfig(
            d=16, epsilon=1.0, s=84, protocol="hetero_samples",
            users=UserRuns([7, 14, 28, 7, 13], [16] * 5, [30, 5, 12, 1, 9])),
        "hetero_comm": PopulationConfig(
            d=32, epsilon=1.0, s=140, protocol="hetero_comm",
            users=UserRuns([1] * 4, [8, 16, 32, 9], [40, 3, 22, 17])),
        "mix_and_match": mix_config(random_runs(rng, 16)),
        "mix_and_match-partition": PopulationConfig(
            d=8, epsilon=1.0, s=28, protocol="mix_and_match",
            users=UserRuns([7, 14, 21, 16], [20, 20, 20, 30], [3, 4, 4, 3]),
            partition=[[0, 7, 13], [1, 2, 3, 4], [5, 9, 10], [6, 8, 11, 12]]),
    }


class TestUserRunsShapes:
    @pytest.mark.parametrize("m, ell, count", [
        ([1, 2], [3], [1, 1]),
        ([1], [3, 4], [1, 1]),
        ([1, 2], [3, 4], [2]),
        ([[1, 2]], [[3, 4]], [[1, 1]]),
        (1, 8, 4),
    ], ids=["short_ell", "short_m", "short_count", "two_dimensional", "scalars"])
    def test_unequal_or_not_1d_rejected(self, m, ell, count):
        with pytest.raises(ParameterError, match="1-D arrays of one length"):
            UserRuns(m, ell, count)


class TestWalkOverRuns:
    """The run-form walk of a mix-and-match plan gives the groups of the
    per-user greedy walk."""

    @pytest.mark.parametrize("seed", range(30))
    def test_greedy_partition_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(1, 9))
        users = random_runs(rng, L)
        if int(_clipped_budgets(users.ells, L).sum()) < REPETITIONS * L:
            with pytest.raises(InfeasiblePartitionError):
                greedy_partition(users.ms, users.ells, L)
            return
        for got, want in zip(greedy_partition(users.ms, users.ells, L),
                             greedy_oracle(users.ms, _clipped_budgets(users.ells, L), L)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(30))
    def test_run_plan_equals_the_oracle_partition(self, seed):
        # the greedy plan over runs equals the per-user plan of the oracle's
        # groups, given as an explicit partition
        rng = np.random.default_rng(1000 + seed)
        users = random_runs(rng, 16)
        try:
            plan = mix_and_match_plan(users.m, users.ell, 16, 1.0, 0, count=users.count)
        except InfeasiblePartitionError:
            return
        order, sizes = greedy_oracle(users.ms, _clipped_budgets(users.ells, 16), 16)
        partition = [group.tolist() for group in np.split(order, np.cumsum(sizes)[:-1])]
        want = mix_and_match_plan(users.ms, users.ells, 16, 1.0, 0, partition)
        assert plan.tau == pytest.approx(want.tau, rel=1e-12)
        assert plan.totals == want.totals and plan.rows == want.rows
        assert np.array_equal(plan.blocks, want.blocks)
        assert np.array_equal(plan.group_rows, want.group_rows)
        for (u, sent), (u0, sent0) in zip(plan.runs, want.runs, strict=True):
            assert np.array_equal(u, u0) and np.array_equal(sent, sent0)
        assert np.array_equal(plan.lengths, want.lengths)


class TestRunStatements:
    """What a plan states per run equals a per-user recomputation."""

    @pytest.mark.parametrize("name", ["mix_and_match", "mix_and_match-partition"])
    def test_mix_blocks_group_rows_and_tau(self, name):
        cfg = structural_plans()[name]
        plan = cfg.plan
        L = plan.width
        ms, ells = cfg.ms(), cfg.ells()
        if cfg.partition is None:
            order, sizes = greedy_oracle(ms, _clipped_budgets(ells, L), L)
        else:
            order = np.array([i for group in cfg.partition for i in group])
            sizes = np.array([len(group) for group in cfg.partition])
        mins = np.minimum.reduceat(ms[order], np.cumsum(sizes) - sizes)
        assert np.array_equal(plan.blocks, mins // REPETITIONS)
        assert plan.rows == mins.shape[0]
        sizes_, rows_ = np.unique(mins // REPETITIONS, return_counts=True)
        assert np.array_equal(plan.group_sizes, sizes_)
        assert np.array_equal(plan.group_rows, rows_)
        assert np.array_equal(plan.groups[1], np.unique(mins // REPETITIONS,
                                                        return_inverse=True)[1])
        tau = hetero_threshold(cfg.epsilon, REPETITIONS * L, hetero_pair_weight(mins), plan.d,
                               mins.shape[0])
        assert plan.tau == pytest.approx(tau, rel=1e-12)

    def test_hetero_samples_blocks_group_rows_and_tau(self):
        cfg = structural_plans()["hetero_samples"]
        plan, ms = cfg.plan, cfg.ms()
        assert np.array_equal(plan.blocks, ms // REPETITIONS)
        sizes, rows = np.unique(ms // REPETITIONS, return_counts=True)
        assert np.array_equal(plan.group_sizes, sizes)
        assert np.array_equal(plan.group_rows, rows)
        ell = int(cfg.users.ell[0])
        tau = hetero_threshold(cfg.epsilon, ell, hetero_pair_weight(ms), plan.d, ms.shape[0])
        assert plan.tau == pytest.approx(tau, rel=1e-12)

    @pytest.mark.parametrize("name", list(structural_plans()))
    def test_bounds_hold_every_built_length(self, name):
        cfg = structural_plans()[name]
        bits, count = cfg.plan.bounds
        assert int(count.sum()) == cfg.n_users()
        assert np.all(cfg.plan.lengths <= np.repeat(bits, count))
        # and the per-run budget check says what the per-user one does
        assert cfg._plan_overdraws == _overdrawn_users(cfg.plan.lengths, cfg.ells()) == ()

    def test_runs_past_the_stated_bounds_rejected(self):
        runs = [(np.array([0, 1]), np.array([3, 2]))]
        layout = Layout(lambda: runs, 2, totals=(5,), bounds=([2], [2]))
        with pytest.raises(ParameterError, match="stated per-user lengths"):
            layout.runs
        assert Layout(lambda: runs, 2, totals=(5,), bounds=([3], [2])).offsets.tolist() == [0, 3, 5]


@pytest.mark.parametrize("cfg", structural_configs() + list(wider_configs().values()),
                         ids=[c.protocol for c in structural_configs()] + list(wider_configs()))
def test_building_a_plan_builds_no_per_user_or_row_array(cfg):
    # every protocol's plan states its layout and builds its runs on first read
    plan = cfg.plan
    assert plan._runs is None and plan._lengths is None
    assert not {"offsets", "blocks", "groups"} & set(vars(plan))


class TestScaleGuard:
    """At about 2e6 users, building a plan and running a law batch with its
    audits builds no array of one entry per user or per referee row: each
    would take 16 MB as int64."""

    @pytest.mark.parametrize("name, k", [("hetero_samples", 21), ("hetero_comm", 14),
                                         ("mix_and_match", 13), ("literal_batch", 140),
                                         ("wide_rotation", 560), ("private-d8", 2000)])
    def test_law_batch_builds_no_per_user_array(self, name, k):
        cfg = scale_base(name).scaled(k)
        assert 1_900_000 < cfg.n_users() < 2_100_000
        tracemalloc.start()
        try:
            plan = cfg.plan
            result = run_batch(cfg, trials=1, master_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.audit_violations == []
        assert plan._runs is None and plan._lengths is None
        assert not {"offsets", "blocks", "groups"} & set(vars(plan))
        assert not {"ms", "ells"} & set(vars(cfg.users))
        assert peak < 16 << 20, peak
