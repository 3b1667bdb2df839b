"""An explicit mix-and-match partition survives every derived config:
`scaled` repeats its groups copy by copy, and `sweep` keeps it."""

import json

import pytest

from distmeantest.cli import EXIT_INFEASIBLE, EXIT_OK, main
from distmeantest.harness import PopulationConfig, estimate_error
from distmeantest.protocols import UserSpec

PARTITION = [[0, 1], [2], [3, 4], [5]]


def partitioned_config():
    """Six users whose partition is not the greedy one: four groups where
    greedy_partition makes three, with other group minima of m, so the
    two plans differ in rows and threshold."""
    return PopulationConfig(
        d=8, epsilon=1.0, s=0, protocol="mix_and_match",
        users=[UserSpec(m, ell)
               for m, ell in zip((7, 28, 14, 21, 7, 28), (28, 28, 56, 28, 28, 56))],
        partition=PARTITION, mean_modes=["null", "spike"])


def plan_facts(plan):
    return (plan.tau, plan.lengths.tolist(), plan.groups[0].tolist(), plan.groups[1].tolist(),
            [(users.tolist(), sent.tolist()) for users, sent in plan.runs])


class TestScaled:
    def test_scaled_once_equals_the_config(self):
        cfg = partitioned_config()
        once = cfg.scaled(1)
        assert once == cfg
        assert plan_facts(once.plan) == plan_facts(cfg.plan)

    def test_groups_repeat_copy_by_copy(self):
        cfg = partitioned_config()
        thrice = cfg.scaled(3)
        assert thrice.partition == [[i + 6 * j for i in group]
                                    for j in range(3) for group in PARTITION]
        # every copy's groups have the config's block sizes, in group order
        assert thrice.plan.blocks.tolist() == cfg.plan.blocks.tolist() * 3


class TestSweep:
    @pytest.fixture
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(partitioned_config().to_dict()))
        return str(path)

    def test_sweep_at_own_epsilon_reproduces_run(self, config_path, capsys):
        code = main(["run", "--config", config_path, "--trials", "40", "--seed", "0"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        code = main(["sweep", "--config", config_path, "--param", "epsilon",
                     "--values", "1.0", "--trials", "40", "--seed", "0"])
        assert code == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[3:] == [repr(summary["type1_rate"]), repr(summary["type2_rates"]["spike"]),
                           repr(summary["ci_halfwidth"])]
        est = estimate_error(partitioned_config(), 40, master_seed=0)
        assert (est.type1_rate, est.type2_rates) == (summary["type1_rate"],
                                                     summary["type2_rates"])

    def test_swept_budget_too_poor_for_a_group_exits_3(self, config_path, capsys):
        # 20 bits each: six users hold 120 >= 56 bits, so a greedy grouping
        # exists, but the partition's first group holds 40 and its lone
        # users 2 and 5 hold 20
        code = main(["sweep", "--config", config_path, "--param", "ell",
                     "--values", "20", "--trials", "3"])
        assert code == EXIT_INFEASIBLE
        assert "group budget 40 is below the requirement 56" in capsys.readouterr().err

