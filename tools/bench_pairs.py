"""Run the benchmark on a parent tree and a change tree in alternating pairs.

For each workload, pair i of ten runs `bench/run.py --workload W --seed S_i`
once on each tree, one run at a time, for the `run_seconds` that
BENCHMARK.json sets; the parent goes first in even pairs and the change in
odd ones, so drift over time falls on both sides alike.  Each run is a fresh
`python3 bench/run.py` in its own tree, with PYTHONDONTWRITEBYTECODE=1, and
its last output line (the JSON summary) is kept.  After the pairs, one
`--trace 1` run per side (parent first) at the next seed splits a trial into
its layers.  The result is written as JSON: per workload and end-to-end
metric, each side's median, quartiles and runs, the pairs the change wins,
the change's median over the parent's, how much worse it reads, and the
parent's quartile distance over its median; for `setup_s`, the ratios of the
parent's own runs to each other, since that wall time varies widely on
unchanged code; and each side's traced layers.  A `--claim` adds the claimed
metric's test: ten pairs, the change better in at least nine of them, and
medians apart by more than the parent's quartile distance.  Every figure is
computed from the runs as printed and rounded to 6 significant digits only
in the file.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --out BENCH_new.json wide_rotation=29301 literal_batch=29101

Each `workload=first_seed` runs the seeds first_seed .. first_seed+10, the
last one traced.  Keys already in the output file that this tool does not
write are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from itertools import combinations
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3, interpolated between order statistics as numpy's
    default percentile does; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def rounded(value):
    """`value` with every float in it rounded to 6 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


def side_summary(runs: list[float]) -> dict:
    q1, median, q3 = quartiles(runs)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def metric_summary(parent: list[float], change: list[float], spec: dict) -> dict:
    """One end-to-end metric over paired runs: run i of each side is pair i.
    `spec` is the metric's entry in BENCHMARK.json (unit, better, bound)."""
    lower = spec["better"] == "lower"
    p, c = side_summary(parent), side_summary(change)
    ratio = c["median"] / p["median"]
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(parent, change))
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "change_over_parent": ratio,
        "worse_by": ratio - 1 if lower else 1 - ratio,
        "wins": f"{wins} of {len(parent)}",
        "parent_quartile_distance_over_median": (p["q3"] - p["q1"]) / p["median"],
    }


def setup_spread(parent: list[float], change: list[float]) -> dict:
    """setup_s of the change against the parent's own run-to-run ratios
    (later over earlier, over every pair of the parent's runs)."""
    q1, median, q3 = quartiles(parent)
    ratios = [b / a for a, b in combinations(parent, 2)]
    r1, rm, r3 = quartiles(ratios)
    change_median = statistics.median(change)
    return {
        "parent_q1": q1, "parent_median": median, "parent_q3": q3,
        "parent_vs_parent_ratio_q1": r1,
        "parent_vs_parent_ratio_median": rm,
        "parent_vs_parent_ratio_q3": r3,
        "parent_vs_parent_ratio_range": [min(ratios), max(ratios)],
        "change_median": change_median,
        "change_over_parent": change_median / median,
        "change_median_inside_parent_quartiles": q1 <= change_median <= q3,
    }


def claim_summary(workload: str, metric: str, summary: dict) -> dict:
    """Whether the change beats the parent on one metric: at least ten pairs,
    better in at least nine of ten, and medians apart by more than the
    parent's quartile distance, in the better direction."""
    m = summary["metrics"][metric]
    p, c = m["parent"], m["change"]
    won, pairs = (int(v) for v in m["wins"].split(" of "))
    difference = c["median"] - p["median"]
    if m["better"] == "lower":
        difference = -difference
    distance = p["q3"] - p["q1"]
    return {
        "workload": workload, "metric": metric,
        "parent_median": p["median"], "change_median": c["median"],
        "change_over_parent": m["change_over_parent"],
        "pairs_won": m["wins"],
        "median_difference": difference,
        "parent_quartile_distance": distance,
        "met": pairs >= PAIRS and 10 * won >= 9 * pairs and difference > distance,
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of one workload from its pairs, each a dict with `seed`,
    `first` and, per side, the JSON line `bench/run.py` printed."""
    runs = {side: [pair[side] for pair in pairs] for side in SIDES}
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        if all(name in run["metrics"] for side in SIDES for run in runs[side]):
            metrics[name] = metric_summary(
                *([run["metrics"][name]["value"] for run in runs[side]] for side in SIDES), spec)
    return {
        "seeds": [pair["seed"] for pair in pairs],
        "pairs": len(pairs),
        "first": [pair["first"] for pair in pairs],
        "correct": all(run["correct"] for side in SIDES for run in runs[side]),
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in SIDES},
        "metrics": metrics,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit's tree")
    parser.add_argument("--change", type=Path, required=True, help="changed tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD.METRIC to test as a claimed gain")
    parser.add_argument("plan", nargs="+", metavar="workload=first_seed")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out["command"] = ("python3 bench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {seconds:g} --trace 0")
    workloads = out.setdefault("workloads", {})
    spread = out.setdefault("setup_s_parent_spread", {})
    traced = out.setdefault("traced", {})
    summaries = {}
    for item in args.plan:
        workload, first_seed = item.split("=")
        trees = {"parent": args.parent, "change": args.change}
        pairs = []
        for i in range(PAIRS):
            seed = int(first_seed) + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} {pair[side]['metrics']['user_trials_per_ref']['value']:.6g}"
                for side in SIDES if "user_trials_per_ref" in pair[side]["metrics"]), flush=True)
        summaries[workload] = summarize(pairs, benchmark["end_to_end"])
        workloads[workload] = rounded(summaries[workload])
        setup = {side: [pair[side]["metrics"]["setup_s"]["value"] for pair in pairs]
                 for side in SIDES}
        spread[workload] = rounded(setup_spread(setup["parent"], setup["change"]))
        seed = int(first_seed) + PAIRS
        traced[workload] = {"seed": seed} | {
            side: rounded({name: m["value"] for name, m in
                           run_once(trees[side], workload, seed, seconds, trace=1)[
                               "metrics"].items() if m["value"]})
            for side in SIDES}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.claim:
        workload, metric = args.claim.split(".")
        out["claim"] = rounded(claim_summary(workload, metric, summaries[workload]))
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
