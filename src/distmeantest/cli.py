"""Command-line front end.

    distmeantest run       --config cfg.json --trials 300 --out trials.csv
    distmeantest calibrate --config cfg.json --target 0.1
    distmeantest sweep     --config cfg.json --param s --values 0,28,84

Exit codes: 0 success, 2 audit violation (some transcript exceeded a bit
budget, also in a calibration that then fails), 3 infeasible configuration
(malformed config, impossible layout, or calibration that cannot reach its
target).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import __version__
from .errors import CalibrationFailedError, MeanTestError, ParameterError
from .harness import (
    MAX_MULTIPLIER,
    SAMPLE_PATHS,
    PopulationConfig,
    calibrate,
    run_batch,
    write_records_csv,
)

EXIT_OK = 0
EXIT_AUDIT = 2
EXIT_INFEASIBLE = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="population config JSON")
    p.add_argument("--trials", type=int, default=200, help="trials per mean mode")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--path", choices=SAMPLE_PATHS, default="law",
                   help="transcript sampling path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distmeantest",
        description="Simulate communication-bounded distributed Gaussian mean tests.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="estimate error rates for one population")
    _add_common(run_p)
    run_p.add_argument("--out", help="write per-trial records as CSV")
    run_p.add_argument("--json", dest="json_out", help="write the summary JSON here")
    run_p.add_argument("--no-timing", action="store_true",
                       help="zero the wall_micros column for reproducible output")

    cal_p = sub.add_parser("calibrate", help="double the population until the target holds")
    _add_common(cal_p)
    cal_p.add_argument("--target", type=float, default=0.1, help="worst-rate target")
    cal_p.add_argument("--max-multiplier", type=int, default=MAX_MULTIPLIER)
    cal_p.add_argument("--json", dest="json_out")

    sweep_p = sub.add_parser("sweep", help="re-estimate while varying one parameter")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", choices=("s", "epsilon", "ell"), required=True)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated values for the swept parameter")
    sweep_p.add_argument("--out", help="write the sweep table as CSV (default stdout)")
    return parser


def _swept_value(param: str, text: str) -> int | float:
    """One --values entry: an exact integer for s and ell, a float for epsilon."""
    number, kind = (float, "numeric") if param == "epsilon" else (int, "integer")
    try:
        return number(text)
    except ValueError:
        raise ParameterError(f"--param {param} needs {kind} values, got {text!r}") from None


def _value_text(value: int | float) -> str:
    """A swept value as the table and the audit lines write it: an integer
    exactly, a float as `:g` writes it when that reads back as the same
    float, and as its shortest round-trip form otherwise."""
    if isinstance(value, int):
        return str(value)
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _with_param(config: PopulationConfig, param: str, value: int | float) -> PopulationConfig:
    # an explicit partition is kept; a value that leaves a group short of its
    # requirement is infeasible
    base = config.to_dict()
    if param == "s":
        base["s"] = value
    elif param == "epsilon":
        base["epsilon"] = value
    else:
        base["users"] = [{"m": u["m"], "ell": value, "count": u["count"]}
                         for u in base["users"]]
    return PopulationConfig.from_dict(base)


def _emit(summary: dict, args, config: PopulationConfig) -> None:
    """Print the summary as JSON, and write it to --json when given.  A
    written summary is the run's record, so it carries its provenance: the
    package and numpy versions, the config's digest, the master seed and the
    sampling path; the printed copy is the same JSON.  A summary that is only
    printed is left as it is, so two runs whose configs differ but whose
    plans and records agree print the same summary."""
    if args.json_out:
        summary = dict(summary, version=__version__, config_sha256=config.digest(),
                       master_seed=args.seed, sample_path=args.path,
                       numpy_version=np.__version__)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_run(args, config: PopulationConfig) -> int:
    batch = run_batch(config, args.trials, master_seed=args.seed,
                      sample_path=args.path, timing=not args.no_timing)
    if args.out:
        write_records_csv(batch.records, args.out)
    est = batch.estimate
    summary = {
        "protocol": config.protocol, "d": config.d, "epsilon": config.epsilon,
        "s": config.s, "n_users": config.n_users(), "trials": est.trials,
        "type1_rate": est.type1_rate, "type2_rates": est.type2_rates,
        "ci_halfwidth": est.ci_halfwidth,
        "audit_violations": len(batch.audit_violations),
    }
    _emit(summary, args, config)
    return _audit_exit(batch.audit_violations)


def _audit_exit(violations: list[str]) -> int:
    """Print the first 20 budget violations to stderr; exit 2 if any."""
    for line in violations[:20]:
        print(f"audit: {line}", file=sys.stderr)
    return EXIT_AUDIT if violations else EXIT_OK


def _cmd_calibrate(args, config: PopulationConfig) -> int:
    result = calibrate(config, args.target, trials=args.trials, master_seed=args.seed,
                       max_multiplier=args.max_multiplier, sample_path=args.path)
    summary = {
        "protocol": config.protocol, "target": args.target,
        "multiplier": result.multiplier, "n_users": result.n_users,
        "worst_rate": result.estimate.worst_rate,
        "type1_rate": result.estimate.type1_rate,
        "type2_rates": result.estimate.type2_rates,
        "scaling_constant": result.scaling_constant,
        "candidates": [dataclasses.asdict(c) for c in result.candidates],
        "audit_violations": len(result.audit_violations),
    }
    _emit(summary, args, config)
    return _audit_exit(result.audit_violations)


def _cmd_sweep(args, config: PopulationConfig) -> int:
    values = [_swept_value(args.param, v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise MeanTestError("sweep needs at least one value")
    variants = [_with_param(config, args.param, value) for value in values]
    alt_modes = [m for m in config.mean_modes if m != "null"]
    header = ["param", "value", "trials", "type1_rate"]
    header += [f"type2_{mode}" for mode in alt_modes]
    header.append("ci_halfwidth")
    rows = [",".join(header)]
    violations = []
    for value, variant in zip(values, variants):
        batch = run_batch(variant, args.trials, master_seed=args.seed,
                          sample_path=args.path, timing=False)
        violations.extend(f"{args.param}={_value_text(value)} {v}" for v in batch.audit_violations)
        est = batch.estimate
        cells = [args.param, _value_text(value), str(est.trials), repr(est.type1_rate)]
        cells += [repr(est.type2_rates[mode]) for mode in alt_modes]
        cells.append(repr(est.ci_halfwidth))
        rows.append(",".join(cells))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return _audit_exit(violations)


_COMMANDS = {"run": _cmd_run, "calibrate": _cmd_calibrate, "sweep": _cmd_sweep}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, PopulationConfig.from_json_file(args.config))
    except (MeanTestError, OSError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        # a failed calibration's budget violations outrank its unmet target, as in run
        violations = exc.audit_violations if isinstance(exc, CalibrationFailedError) else []
        return _audit_exit(violations) or EXIT_INFEASIBLE
    except MemoryError:
        # e.g. by a population whose per-user arrays no memory can hold
        print("infeasible: the configuration does not fit in memory", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
