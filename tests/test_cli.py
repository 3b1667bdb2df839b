"""Command-line interface tests, run in-process through main()."""

import json

import pytest

from distmeantest.cli import EXIT_AUDIT, EXIT_INFEASIBLE, EXIT_OK, main
from distmeantest.harness import BatchResult, ErrorEstimate


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
