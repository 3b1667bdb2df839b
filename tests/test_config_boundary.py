"""The config boundary: every bad input exits 3 with the package's message,
and nothing else does.

A config that gives a key twice is rejected, not read last-wins; a file
that is not UTF-8 JSON and a swept value that is not a number raise the
package's `ParameterError` where they are read.  So the command line
catches only the package's errors and `OSError`, and a fault inside the
package (a numpy or Python error) is not reported as an infeasible input.
A seeded fuzzer mutates the five protocols' configs and runs every mutant
through `run` on both paths and through `calibrate`.
"""

import copy
import json
import random

import pytest

from distmeantest import protocols
from distmeantest.cli import EXIT_AUDIT, EXIT_INFEASIBLE, EXIT_OK, main
from distmeantest.errors import ParameterError
from distmeantest.harness import PopulationConfig

PRIVATE = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
           "users": [{"m": 1, "ell": 8, "count": 16}], "mean_modes": ["null", "spike"]}

# one small config of each protocol, every one feasible as written
BASES = [
    PRIVATE,
    {"d": 16, "epsilon": 1.0, "s": 28, "protocol": "limited",
     "users": [{"m": 1, "ell": 4, "count": 112}]},
    {"d": 8, "epsilon": 1.0, "s": 56, "protocol": "hetero_samples",
     "users": [{"m": 7, "ell": 14, "count": 1}, {"m": 14, "ell": 14, "count": 1}] * 4,
     "mean_modes": ["null", "spread"]},
    {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "hetero_comm",
     "users": [{"m": 1, "ell": 7, "count": 4}, {"m": 1, "ell": 14, "count": 4},
               {"m": 1, "ell": 28, "count": 4}]},
    {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "mix_and_match",
     "users": [{"m": m, "ell": ell} for m, ell in zip((7, 28, 14, 21, 7, 28),
                                                     (28, 28, 56, 28, 28, 56))],
     "partition": [[0, 1], [2], [3, 4], [5]], "mean_modes": ["null", "random_direction"]},
]

# what a mutation writes in place of a value; None is JSON null
VALUES = [0, -1, 2 ** 63, 2 ** 64, float("nan"), float("inf"), float("-inf"), "x", None, [1]]


def write(tmp_path, text: str, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def infeasible(argv, capsys) -> str:
    """The stderr of a command that must exit 3."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_INFEASIBLE, err
    return err


class TestRepeatedKeys:
    """A key given twice is an error, wherever it sits; at the parent these
    configs ran with the last value."""

    def test_top_level_key(self, tmp_path, capsys):
        text = json.dumps(PRIVATE)[:-1] + ', "d": 16}'
        assert json.loads(text)["d"] == 16
        err = infeasible(["run", "--config", write(tmp_path, text), "--trials", "2"], capsys)
        assert err == "infeasible: config gives the key 'd' twice\n"

    def test_key_inside_a_user_run(self, tmp_path, capsys):
        text = json.dumps(PRIVATE).replace('"count": 16}', '"count": 16, "ell": 4}')
        assert json.loads(text)["users"] == [{"m": 1, "ell": 4, "count": 16}]
        with pytest.raises(ParameterError, match="config gives the key 'ell' twice"):
            PopulationConfig.from_json_file(write(tmp_path, text))
        err = infeasible(["calibrate", "--config", write(tmp_path, text), "--trials", "2"],
                         capsys)
        assert err == "infeasible: config gives the key 'ell' twice\n"

    def test_distinct_keys_still_read(self, tmp_path):
        cfg = PopulationConfig.from_json_file(write(tmp_path, json.dumps(BASES[4])))
        assert cfg == PopulationConfig.from_dict(BASES[4])


class TestBadInputExits3:
    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(PRIVATE).replace("null", "n\xfcll").encode("latin-1"))
        with pytest.raises(ParameterError, match="is not UTF-8 JSON text"):
            PopulationConfig.from_json_file(str(path))
        err = infeasible(["run", "--config", str(path), "--trials", "2"], capsys)
        assert err.startswith(f"infeasible: config {path} is not UTF-8 JSON text: "), err

    def test_malformed_json(self, tmp_path, capsys):
        path = write(tmp_path, "{not json")
        with pytest.raises(ParameterError, match="is not UTF-8 JSON text"):
            PopulationConfig.from_json_file(path)
        err = infeasible(["run", "--config", path, "--trials", "2"], capsys)
        assert err.startswith(f"infeasible: config {path} is not UTF-8 JSON text: Expecting"), err

    @pytest.mark.parametrize("value", ["abc", "1e", "0.5.1"])
    def test_swept_epsilon_that_is_not_a_number(self, tmp_path, capsys, value):
        path = write(tmp_path, json.dumps(PRIVATE))
        err = infeasible(["sweep", "--config", path, "--param", "epsilon",
                          "--values", f"0.5,{value}", "--trials", "2"], capsys)
        assert err == f"infeasible: --param epsilon needs numeric values, got '{value}'\n"


class TestPackageFaultsAreNotInfeasible:
    """A numpy or Python error inside a protocol is a fault of the package:
    it propagates, where the old catch-all printed `infeasible:` and exited 3."""

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_error_inside_a_protocol_propagates(self, tmp_path, monkeypatch, capsys, error):
        def broken(*args, **kwargs):
            raise error("fault inside the referee")
        monkeypatch.setattr(protocols, "collision_statistic_counts", broken)
        path = write(tmp_path, json.dumps(PRIVATE))
        with pytest.raises(error, match="fault inside the referee"):
            main(["run", "--config", path, "--trials", "2"])
        assert "infeasible:" not in capsys.readouterr().err


def slots(node, out=None) -> list:
    """Every (container, key) pair of a parsed JSON value, depth first."""
    out = [] if out is None else out
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            slots(value, out)
    return out


def mutant(base: dict, rng: random.Random) -> dict:
    """base with 1-3 mutations, each writing one of VALUES over a value or
    dropping it."""
    cfg = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        candidates = slots(cfg)
        if not candidates:
            break
        container, key = rng.choice(candidates)
        if rng.random() < 0.25:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(VALUES))
    return cfg


COMMANDS = [["run", "--path", "law"], ["run", "--path", "literal"],
            ["calibrate", "--max-multiplier", "2"]]


def test_mutated_configs_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261020)
    exits = {EXIT_OK: 0, EXIT_AUDIT: 0, EXIT_INFEASIBLE: 0}
    for i in range(300):
        cfg = mutant(BASES[i % len(BASES)], rng)
        path = write(tmp_path, json.dumps(cfg))
        for command in COMMANDS:
            code = main([*command, "--config", path, "--trials", "2"])
            err = capsys.readouterr().err
            assert code in exits, (cfg, command, code, err)
            assert "Traceback" not in err, (cfg, command, err)
            exits[code] += 1
    # the mutations reach past the parser: some mutants still run
    assert exits[EXIT_OK] > 0 and exits[EXIT_INFEASIBLE] > 0, exits
