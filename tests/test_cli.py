"""Command-line interface tests, run in-process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distmeantest
from distmeantest import cli, harness
from distmeantest.cli import EXIT_AUDIT, EXIT_INFEASIBLE, EXIT_OK, main
from distmeantest.harness import AuditReport, BatchResult, ErrorEstimate, PopulationConfig


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
        "users": [{"m": 1, "ell": 8, "count": 16}],
        "mean_modes": ["null", "spike"],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRun:
    def test_writes_csv_and_json(self, config_path, tmp_path, capsys):
        csv_path = tmp_path / "records.csv"
        json_path = tmp_path / "summary.json"
        code = main(["run", "--config", config_path, "--trials", "5",
                     "--out", str(csv_path), "--json", str(json_path)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_users"] == 16
        assert summary["trials"] == 5
        assert summary["audit_violations"] == 0
        assert set(summary["type2_rates"]) == {"spike"}
        assert json.loads(json_path.read_text()) == summary

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,mean_mode,verdict,bits_total,public_bits_used,wall_micros"
        assert len(lines) == 1 + 2 * 5   # two modes, five trials each

    def test_no_timing_replay_is_byte_identical(self, config_path, tmp_path, capsys):
        outputs = []
        for i in range(2):
            p = tmp_path / f"r{i}.csv"
            code = main(["run", "--config", config_path, "--trials", "4",
                         "--seed", "7", "--no-timing", "--out", str(p)])
            assert code == EXIT_OK
            capsys.readouterr()
            outputs.append(p.read_bytes())
        assert outputs[0] == outputs[1]

    def test_literal_path(self, config_path, capsys):
        code = main(["run", "--config", config_path, "--trials", "2",
                     "--path", "literal"])
        assert code == EXIT_OK
        capsys.readouterr()

    def test_audit_violation_exit_code(self, config_path, monkeypatch, capsys):
        estimate = ErrorEstimate(trials=1, type1_rate=0.0, type2_rates={},
                                 ci_halfwidth=0.0)
        bad = BatchResult(estimate=estimate, records=[],
                          audit_violations=["mode=null trial=0: user 0 sent 9 bits, budget 8"])
        monkeypatch.setattr("distmeantest.cli.run_batch",
                            lambda *args, **kwargs: bad)
        code = main(["run", "--config", config_path])
        assert code == EXIT_AUDIT
        assert "audit:" in capsys.readouterr().err


class TestCalibrate:
    def test_reports_landing_point(self, tmp_path, capsys):
        cfg = {
            "d": 4, "epsilon": 1.0, "s": 0, "protocol": "private",
            "users": [{"m": 1, "ell": 4, "count": 8}],
            "mean_modes": ["null", "spike"],
        }
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(cfg))
        code = main(["calibrate", "--config", str(path), "--target", "0.2",
                     "--trials", "60", "--seed", "13"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_users"] == 8 * summary["multiplier"]
        assert summary["worst_rate"] <= 0.2

    def test_unreachable_target(self, config_path, capsys):
        code = main(["calibrate", "--config", config_path, "--target", "0.001",
                     "--trials", "20", "--max-multiplier", "1"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible:" in capsys.readouterr().err

    def test_bad_target(self, config_path, capsys):
        code = main(["calibrate", "--config", config_path, "--target", "0.8",
                     "--trials", "5"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()


class TestCalibrateArguments:
    @pytest.mark.parametrize("flag, value, named", [
        ("--max-multiplier", "0", "max_multiplier must be >= 1, got 0"),
        ("--max-multiplier", "-4", "max_multiplier must be >= 1, got -4"),
        ("--trials", "0", "trials must be >= 1, got 0"),
    ])
    def test_bad_argument_is_not_a_failed_calibration(self, config_path, capsys, flag, value,
                                                      named):
        code = main(["calibrate", "--config", config_path, flag, value])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert named in err and "no multiplier" not in err, err

    def test_summary_lists_every_candidate(self, tmp_path, capsys):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({"d": 8, "epsilon": 0.5, "s": 0, "protocol": "private",
                                    "users": [{"m": 1, "ell": 8, "count": 8}],
                                    "mean_modes": ["null", "spike"]}))
        code = main(["calibrate", "--config", str(path), "--target", "0.001", "--trials", "30"])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        candidates = summary["candidates"]
        assert [c["multiplier"] for c in candidates] == [2 ** i for i in range(len(candidates))]
        assert candidates[-1] == {"multiplier": summary["multiplier"],
                                  "n_users": summary["n_users"], "trials_run": 60,
                                  "stopped_early": False}
        assert all(c["stopped_early"] and c["trials_run"] < 60 for c in candidates[:-1])
        assert summary["audit_violations"] == 0


class TestAuditExitCodes:
    """Every command exits 2 when some audited transcript broke a budget."""

    @pytest.fixture(autouse=True)
    def one_violation_per_trial(self, monkeypatch):
        monkeypatch.setattr(harness, "budget_audit", lambda transcript, config: AuditReport(
            False, ["user 0 sent 9 bits, budget 8"]))

    @pytest.mark.parametrize("command", [
        ["run", "--trials", "3"],
        ["calibrate", "--target", "0.45", "--trials", "3"],
        ["sweep", "--param", "s", "--values", "0,28", "--trials", "3"],
    ], ids=["run", "calibrate", "sweep"])
    def test_exit_2_with_audit_lines(self, config_path, capsys, command):
        code = main([command[0], "--config", config_path] + command[1:])
        assert code == EXIT_AUDIT
        err = capsys.readouterr().err.splitlines()
        assert err and all(line.startswith("audit: ") for line in err)
        assert err[0].endswith("mode=null trial=0: user 0 sent 9 bits, budget 8")

    def test_failed_calibration_exits_2_with_audit_lines(self, config_path, capsys):
        # a budget fault outranks the unmet target, as it does in run
        code = main(["calibrate", "--config", config_path, "--target", "0.001",
                     "--trials", "20", "--max-multiplier", "1"])
        assert code == EXIT_AUDIT
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "infeasible: no multiplier up to 1 reached worst error 0.001"
        assert len(err) > 1 and all(line.startswith("audit: x1 mode=") for line in err[1:])
        assert err[1] == "audit: x1 mode=null trial=0: user 0 sent 9 bits, budget 8"


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, config_path, capsys):
        argv = ["run", "--config", config_path, "--trials", "3", "--seed", "5"]
        src = str(Path(distmeantest.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-m", "distmeantest.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
        assert (child.returncode, child.stdout) == (main(argv), capsys.readouterr().out)
        assert child.returncode == EXIT_OK and json.loads(child.stdout)["trials"] == 3


class TestSweep:
    def test_stdout_table(self, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--param", "ell",
                     "--values", "4,8", "--trials", "4"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param,value,trials,type1_rate,type2_spike,ci_halfwidth"
        assert len(lines) == 3
        assert lines[1].startswith("ell,4,4,")
        assert lines[2].startswith("ell,8,4,")

    def test_file_output(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", config_path, "--param", "epsilon",
                     "--values", "0.5,1.0", "--trials", "3", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("epsilon,0.5,3,")

    def test_empty_values(self, config_path, capsys):
        code = main(["sweep", "--config", config_path, "--param", "s",
                     "--values", ",", "--trials", "3"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()

    @pytest.mark.parametrize("param,value", [
        ("ell", "0"), ("s", "inf"), ("s", "1e400"), ("ell", "4.7")])
    def test_invalid_swept_value(self, config_path, capsys, param, value):
        code = main(["sweep", "--config", config_path, "--param", param,
                     "--values", value, "--trials", "3"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()

    def test_integer_values_are_read_exactly(self, config_path, monkeypatch, capsys):
        # 2^53 + 1 is not a float64: read through a float it would run at 2^53
        swept = []
        run = cli.run_batch
        monkeypatch.setattr(cli, "run_batch",
                            lambda config, *args, **kwargs: swept.append(config.s)
                            or run(config, *args, **kwargs))
        code = main(["sweep", "--config", config_path, "--param", "s",
                     "--values", "9007199254740993", "--trials", "2"])
        assert code == EXIT_OK
        assert swept == [9007199254740993]
        assert capsys.readouterr().out.splitlines()[1].startswith("s,9007199254740993,2,")

    @pytest.mark.parametrize("value", ["28.0", "1e3", "0x10"])
    def test_integer_values_must_be_written_as_integers(self, config_path, capsys, value):
        code = main(["sweep", "--config", config_path, "--param", "s",
                     "--values", value, "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        assert "--param s needs integer values" in capsys.readouterr().err

    @pytest.mark.parametrize("param,values,cells", [
        ("s", "28,1234567", ["28", "1234567"]),
        ("ell", "8,1", ["8", "1"]),
        ("epsilon", "0.5,1,0.123456789", ["0.5", "1", "0.123456789"]),
        ("epsilon", "0.1234567", ["0.1234567"]),
    ])
    def test_values_are_written_exactly(self, config_path, capsys, param, values, cells):
        code = main(["sweep", "--config", config_path, "--param", param,
                     "--values", values, "--trials", "2"])
        assert code == EXIT_OK
        written = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert written == cells
        parse = float if param == "epsilon" else int
        assert [parse(cell) for cell in written] == [parse(v) for v in values.split(",")]

    @pytest.mark.parametrize("param,value", [("s", "1234567"), ("epsilon", "0.123456789")])
    def test_audit_lines_name_the_value_exactly(self, config_path, monkeypatch, capsys,
                                                param, value):
        monkeypatch.setattr(harness, "budget_audit", lambda transcript, config: AuditReport(
            False, ["user 0 sent 9 bits, budget 8"]))
        code = main(["sweep", "--config", config_path, "--param", param,
                     "--values", value, "--trials", "2"])
        assert code == EXIT_AUDIT
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"audit: {param}={value} mode=null trial=0: user 0 sent 9 bits, budget 8"


class TestInfeasibleInputs:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["run"], ["calibrate", "--target", "0.1"],
                                         ["sweep", "--param", "s", "--values", "0"]],
                             ids=["run", "calibrate", "sweep"])
    def test_deeply_nested_json(self, tmp_path, command):
        # 2000 nested arrays pass the JSON parser's recursion limit
        path = tmp_path / "deep.json"
        path.write_text("[" * 2000 + "]" * 2000)
        src = str(Path(distmeantest.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-m", "distmeantest.cli", *command,
                                "--config", str(path), "--trials", "2"],
                               capture_output=True, text=True, env=env, timeout=120)
        assert child.returncode == EXIT_INFEASIBLE
        assert child.stderr == f"infeasible: config {path} is nested too deeply to read\n"
        assert "Traceback" not in child.stderr

    def test_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"d": 8, "protocol": "private"}))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()

    def test_impossible_layout(self, tmp_path, capsys):
        # two users cannot assemble a single 8-coordinate sample from 2 bits
        cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
               "users": [{"m": 1, "ell": 1, "count": 2}]}
        path = tmp_path / "thin.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        capsys.readouterr()

    def test_duplicate_mean_modes(self, tmp_path, capsys):
        # a repeated mode would run and count its trials twice
        cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
               "users": [{"m": 1, "ell": 8, "count": 16}],
               "mean_modes": ["null", "null", "spike"]}
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        assert "distinct" in capsys.readouterr().err

    def test_count_beyond_memory(self, tmp_path, capsys):
        # 10^15 users fill 10^15 referee rows, past the int64 limit of the
        # referee's sum: rejected when the plan is built, before any array
        # of one entry per user or row is allocated
        cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
               "users": [{"m": 1, "ell": 8, "count": 10 ** 15}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "overflow its int64 sum" in err, err

    def test_memory_error_exits_infeasible(self, config_path, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("distmeantest.cli.run_batch", out_of_memory)
        code = main(["run", "--config", config_path, "--trials", "2"])
        assert code == EXIT_INFEASIBLE == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "does not fit in memory" in err, err

    @pytest.mark.parametrize("field", ["m", "ell", "count"])
    def test_integer_beyond_int64(self, tmp_path, capsys, field):
        entry = {"m": 1, "ell": 56, "count": 16}
        entry[field] = 10 ** 23
        cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "hetero_comm", "users": [entry]}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith(f"infeasible: {field} {10 ** 23} does not fit"), err

    @pytest.mark.parametrize("raw,named", [
        ([{"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private"}], "config must be an object"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "mix_and_match",
          "users": [{"m": 7, "ell": 56, "count": 4}], "partition": [["a"], [1, 2, 3]]},
         "partition"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
          "users": [{"m": 1, "ell": 8, "count": 16}], "mean_modes": "null"}, "mean_modes"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "mix_and_match",
          "users": [{"m": 7, "ell": 56, "count": 4}], "partitions": [[0, 1], [2, 3]]},
         "unknown field 'partitions'"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
          "users": [{"m": 1, "ell": 8, "count": 16}], "mean_mode": ["null"]},
         "unknown field 'mean_mode'"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
          "users": [{"m": 1, "ell": 8, "cnt": 16}]}, "unknown field 'cnt'"),
        ({"d": 8, "epsilon": 1.0, "s": 0, "protocol": "private",
          "users": [{"ell": 8, "count": 16}]}, "missing required field 'm'"),
    ], ids=["top_level_list", "string_partition_entry", "string_mean_modes",
            "unknown_top_level_key", "unknown_mean_mode_key", "unknown_users_key",
            "missing_m"])
    def test_wrongly_typed_config(self, tmp_path, capsys, raw, named):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and named in err, err


class TestBudgetAndCountLimits:
    def test_budget_past_7L_runs_the_7L_plan(self, tmp_path, capsys):
        # d = 8, s = 0: L = 8, so a group needs 56 bits; a budget at the
        # int64 limit is clipped to 56 before any sum, and each user still
        # closes its own group
        outputs, plans = [], []
        for ell in (56, 2 ** 63 - 1):
            cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "mix_and_match",
                   "users": [{"m": 7, "ell": ell, "count": 32}]}
            path, csv_path = tmp_path / f"cfg{ell}.json", tmp_path / f"trials{ell}.csv"
            path.write_text(json.dumps(cfg))
            code = main(["run", "--config", str(path), "--trials", "3", "--no-timing",
                         "--out", str(csv_path)])
            assert code == EXIT_OK, capsys.readouterr().err
            outputs.append((capsys.readouterr().out, csv_path.read_text()))
            plans.append(PopulationConfig.from_json_file(str(path)).plan)
        assert outputs[0] == outputs[1]
        assert np.array_equal(plans[0].lengths, plans[1].lengths)
        for (users, sent), (users0, sent0) in zip(plans[1].runs, plans[0].runs, strict=True):
            assert np.array_equal(users, users0) and np.array_equal(sent, sent0)

    def test_user_total_beyond_int64(self, tmp_path, capsys):
        # each count fits in an int64, their sum does not
        cfg = {"d": 8, "epsilon": 1.0, "s": 0, "protocol": "hetero_comm",
               "users": [{"m": 1, "ell": 56, "count": 2 ** 62},
                         {"m": 1, "ell": 28, "count": 2 ** 62}]}
        path = tmp_path / "total.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--trials", "2"])
        assert code == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: count total") and "64-bit" in err, err


class TestProvenance:
    """The run and calibrate summaries say which package, config, seed,
    sampling path and numpy made them."""

    @pytest.mark.parametrize("command", [
        ["run", "--trials", "2", "--seed", "9", "--path", "literal"],
        ["calibrate", "--trials", "20", "--seed", "9", "--target", "0.45"],
    ], ids=["run", "calibrate"])
    def test_summary_carries_provenance(self, config_path, tmp_path, capsys, command):
        json_path = tmp_path / "summary.json"
        code = main(command + ["--config", config_path, "--json", str(json_path)])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert json.loads(json_path.read_text()) == summary
        config = PopulationConfig.from_json_file(config_path)
        assert summary["version"] == distmeantest.__version__
        assert summary["config_sha256"] == config.digest()
        assert summary["master_seed"] == 9
        assert summary["sample_path"] == ("literal" if command[0] == "run" else "law")
        assert summary["numpy_version"] == np.__version__

    def test_digest_survives_a_round_trip_and_follows_the_config(self, config_path):
        config = PopulationConfig.from_json_file(config_path)
        digest = config.digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert PopulationConfig.from_dict(config.to_dict()).digest() == digest
        assert PopulationConfig.from_dict(json.loads(json.dumps(config.to_dict()))).digest() \
            == digest
        assert config.scaled(1).digest() == digest
        assert PopulationConfig.from_dict(dict(config.to_dict(), s=28)).digest() != digest
