"""Benchmark of distmeantest's Monte Carlo cost, end to end and per layer.

    python3 bench/run.py --workload law_population --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` beside this directory and driven only
through its public API (``PopulationConfig.from_json_file``, ``run_trial``,
``run_batch``, ``calibrate``) on one thread.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` also wraps the layer boundaries (see
``tracer.py``) and reports the per-layer metrics instead.  Every line but the
last is for people; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md defines the
workloads, the metrics and which layer should move which end-to-end metric.
"""

from __future__ import annotations

import os

# One thread: pin every BLAS/OpenMP pool before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG_DIR = BENCH_DIR / "configs"

if not (SRC / "distmeantest" / "__init__.py").is_file():
    sys.exit(f"bench: no package source at {SRC / 'distmeantest'}; "
             "run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import distmeantest as dmt                                          # noqa: E402
from distmeantest import binary_test, brht, harness, protocols      # noqa: E402

from tracer import LayerStats, Tracer                               # noqa: E402

# setup_s is the median of at least SETUP_REPEATS set-ups spanning SETUP_SECONDS
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
LAW_WORST_RATE_BOUND = 0.15  # the criterion-8 error bound, pooled over law_population
CALIBRATE_TARGET = 0.1
CALIBRATE_TRIALS = 10       # about 5 s a call, so a run repeats it several times
CALIBRATE_SEED = 5         # fixed so every run repeats the same doubling search
CALIBRATE_MAX_MULTIPLIER = 64


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]    # JSON files in configs/
    sample_path: str
    trials_per_mode: int = 0    # per run_batch pass; 0 means the workload runs calibrate


# Each workload puts one layer on top and leaves others out; README.md has the
# measured split behind each choice.
WORKLOADS = {
    # The three heaviest criterion-8 populations (96k-153k users): per-user
    # bit draws, transcript scatter, the referee and the audit; b <= 32.
    "law_population": Workload(("hetero_samples", "hetero_comm", "mix_and_match"), "law", 5),
    # Seven b=4096 four-wise sign vectors per trial: GF(2^12) arithmetic.
    "wide_rotation": Workload(("wide_rotation",), "law", 2),
    # FWHT of (2048, 256) sample batches and Gaussian sampling; s=0, no seed bits.
    "literal_batch": Workload(("literal_batch",), "literal", 2),
    # Doubling search from 9,600 users: cold config, partition and layout per candidate.
    "calibrate_mix": Workload(("calibrate_mix",), "law"),
}

# Work counted at the layer boundaries, per measured trial.
COUNTS = ("randomness.signs", "randomness.seed_bits", "hadamard.fwht_elems",
          "brht.apply_elems", "binary_test.referee_bits", "protocols.transcript_bits")
END_TO_END_UNITS = {"trial_p50_ref": "ref", "trial_p90_ref": "ref", "user_trials_per_ref": "1/ref",
                    "calibrate_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
YARDSTICK_WINDOW = 2    # a trial's ref is the median yardstick of the 2 before to 2 after it

# The yardstick: fixed work that shares nothing with the package, run after
# every trial's audit.  Its buffers are allocated once, so its time depends
# only on how fast the host runs this process at that moment.
_YARD_RNG = np.random.default_rng(0)
_YARD_MID = np.empty(1 << 16)       # 512 KiB
_YARD_BIG = np.zeros(1 << 19)       # 4 MiB


def yardstick() -> int:
    _YARD_RNG.random(out=_YARD_MID)
    hits = int(np.count_nonzero(_YARD_MID < 0.3))
    np.add(_YARD_BIG, 1.0, out=_YARD_BIG)
    total = 0
    for i in range(3000):
        total += i & 7
    return hits + total


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


@dataclass
class Probe:
    """Checks every trial's outputs and counts work at the layer boundaries."""

    trial_ns: list[int] = field(default_factory=list)
    yard_ns: list[int] = field(default_factory=list)    # one yardstick after each audit
    user_trials: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _last_trial_ok: bool = True

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up phase's trials)."""
        self.__init__()

    def on_trial(self, args, kwargs, result, elapsed_ns):
        config = _arg(args, kwargs, 0, "config")
        decision, transcript = result
        self.trial_ns.append(elapsed_ns)
        self.user_trials += config.n_users()
        self.counts["protocols.transcript_bits"] += transcript.total_bits
        problems = []
        if not decision.consistent():
            problems.append(f"inconsistent decision {decision}")
        if transcript.public_bits_used != config.s:
            problems.append(f"used {transcript.public_bits_used} public bits, s={config.s}")
        self._fail(problems)

    def on_audit(self, args, kwargs, report, elapsed_ns):
        if not report.ok and self._last_trial_ok:
            self._fail(report.violations[:3])
        t0 = time.perf_counter_ns()
        yardstick()
        self.yard_ns.append(time.perf_counter_ns() - t0)

    def on_signs(self, args, kwargs, result, elapsed_ns):
        self.counts["randomness.signs"] += _arg(args, kwargs, 1, "b")
        self.counts["randomness.seed_bits"] += result.bits_consumed

    def on_fwht(self, args, kwargs, result, elapsed_ns):
        self.counts["hadamard.fwht_elems"] += np.size(_arg(args, kwargs, 0, "a"))

    def on_apply(self, args, kwargs, result, elapsed_ns):
        self.counts["brht.apply_elems"] += np.size(_arg(args, kwargs, 1, "x"))

    def on_referee(self, args, kwargs, result, elapsed_ns):
        self.counts["binary_test.referee_bits"] += np.size(_arg(args, kwargs, 0, "samples"))

    def _fail(self, problems: list[str]) -> None:
        self._last_trial_ok = not problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def install(tracer: Tracer, probe: Probe, full: bool) -> None:
    """Wrap the trial boundary (always: it carries the output checks) and,
    when `full`, every layer boundary, as the calling modules bind them."""
    for caller in (harness, dmt):
        tracer.wrap(caller, "run_trial", "harness.run_trial", probe.on_trial)
    tracer.wrap(harness, "budget_audit", "harness.budget_audit", probe.on_audit)
    if not full:
        return
    # a child of whatever encloses the audit, so no layer's self time holds it
    tracer.wrap(sys.modules[__name__], "yardstick", "bench.yardstick")
    tracer.wrap(brht, "fourwise_rademacher", "randomness.fourwise_rademacher", probe.on_signs)
    tracer.wrap(brht, "fwht_inplace", "hadamard.fwht_inplace", probe.on_fwht)
    for caller in (harness, protocols):
        tracer.wrap(caller, "sample_brht", "brht.sample_brht")
        tracer.wrap(caller, "brht_apply", "brht.brht_apply", probe.on_apply)
        tracer.wrap(caller, "greedy_partition", "protocols.greedy_partition")
        tracer.wrap(caller, "private_coin_protocol", "protocols.private_coin_protocol")
    tracer.wrap(harness, "limited_coin_protocol", "protocols.limited_coin_protocol")
    tracer.wrap(harness, "gen_gaussian_samples", "harness.gen_gaussian_samples")
    tracer.wrap(binary_test, "collision_statistic", "binary_test.collision_statistic",
                probe.on_referee)
    tracer.wrap(dmt.PopulationConfig, "from_json_file", "harness.config_build")
    tracer.wrap(dmt.PopulationConfig, "scaled", "harness.config_build")
    tracer.wrap(dmt, "calibrate", "harness.calibrate")


# ---------------------------------------------------------------------------
# set-up and measurement


def set_up(workload: Workload, seed: int) -> tuple[float, list]:
    """Parse the workload's configs and run one warm-up trial on each, which
    fills the partition and layout caches; return the wall time and configs."""
    t0 = time.perf_counter()
    configs = [dmt.PopulationConfig.from_json_file(str(CONFIG_DIR / f"{name}.json"))
               for name in workload.configs]
    for config in configs:
        dmt.run_trial(config, dmt.MeanSpec("null", 0.0), 0, seed, workload.sample_path)
    return time.perf_counter() - t0, configs


def run_units(seconds: float, unit) -> list[float]:
    """Call unit() back to back for about `seconds`: at least once, and never
    starting a call that the previous call's duration says would end late."""
    durations: list[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + durations[-1] <= seconds:
        t0 = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - t0)
    return durations


@dataclass
class Outcome:
    unit_s: list[float]
    unit_trial_ms: list[list[float]]    # per unit, its trials' times in order
    unit_yard_ms: list[list[float]]     # per unit, the yardstick after each trial
    errors: list[str] = field(default_factory=list)
    checks_ok: bool = True
    notes: list[str] = field(default_factory=list)
    unit_note: str = ""         # printed beside calibrate_ref


def measure_batches(workload: Workload, configs: list, probe: Probe, seed: int,
                    seconds: float) -> Outcome:
    """Passes of run_batch(timing=True) over every config, one fresh master
    seed per pass; per-trial times are the records' wall_micros."""
    master_seeds = np.random.default_rng(seed)
    unit_trial_ms: list[list[float]] = []
    starts: list[int] = []   # where each pass's yardsticks begin in probe.yard_ns
    errors: list[str] = []
    wrong: Counter = Counter()
    tried: Counter = Counter()

    def one_pass():
        master_seed = int(master_seeds.integers(2 ** 32))
        trial_ms = []
        unit_trial_ms.append(trial_ms)
        starts.append(len(probe.yard_ns))
        for config in configs:
            try:
                result = dmt.run_batch(config, workload.trials_per_mode, master_seed,
                                       sample_path=workload.sample_path, timing=True)
            except Exception as exc:  # the failed trial is counted; the run goes on
                errors.append(f"{config.protocol}: {exc!r}")
                continue
            trial_ms.extend(r.wall_micros / 1e3 for r in result.records)
            for r in result.records:
                tried[r.mean_mode] += 1
                wrong[r.mean_mode] += (r.verdict == dmt.REJECT) if r.mean_mode == "null" \
                    else (r.verdict == dmt.ACCEPT)

    unit_s = run_units(seconds, one_pass)
    outcome = Outcome(unit_s=unit_s, unit_trial_ms=unit_trial_ms,
                      unit_yard_ms=_slices(probe.yard_ns, starts), errors=errors,
                      checks_ok=not errors)
    rates = {mode: wrong[mode] / tried[mode] for mode in tried}
    worst = max(rates.values(), default=1.0)
    outcome.notes.append("pooled error rates: " + ", ".join(
        f"{mode}={rate:.3f} ({tried[mode]} trials)" for mode, rate in rates.items()))
    if workload.sample_path == "law" and len(configs) > 1:
        bound_ok = worst <= LAW_WORST_RATE_BOUND
        outcome.checks_ok &= bound_ok
        outcome.notes.append(f"pooled worst error rate {worst:.3f} "
                             f"(bound {LAW_WORST_RATE_BOUND}): " + ("ok" if bound_ok else "FAILED"))
    return outcome


def _slices(ns: list[int], starts: list[int]) -> list[list[float]]:
    """Split `ns` at `starts` into one list of milliseconds per unit."""
    bounds = starts + [len(ns)]
    return [[t / 1e6 for t in ns[a:b]] for a, b in zip(bounds, bounds[1:])]


def measure_calibrations(configs: list, probe: Probe, seconds: float) -> Outcome:
    """Back-to-back calibrate calls on the base config.  calibrate runs its
    batches with timing off, so per-trial times come from the trial boundary."""
    base = configs[0]
    results = []
    errors: list[str] = []
    starts: list[int] = []   # where each call's trials (and yardsticks) begin in the probe

    def one_call():
        starts.append(len(probe.trial_ns))
        try:
            results.append(dmt.calibrate(base, CALIBRATE_TARGET, trials=CALIBRATE_TRIALS,
                                         master_seed=CALIBRATE_SEED,
                                         max_multiplier=CALIBRATE_MAX_MULTIPLIER))
        except Exception as exc:  # reported as incorrect; the run goes on
            errors.append(repr(exc))

    unit_s = run_units(seconds, one_call)
    multipliers = {r.multiplier for r in results}
    outcome = Outcome(unit_s=unit_s, unit_trial_ms=_slices(probe.trial_ns, starts),
                      unit_yard_ms=_slices(probe.yard_ns, starts), errors=errors,
                      checks_ok=not errors and len(multipliers) == 1 and all(
                          r.estimate.worst_rate <= CALIBRATE_TARGET
                          and r.n_users == base.n_users() * r.multiplier for r in results))
    if results:
        outcome.unit_note = (f"reached x{results[0].multiplier} ({results[0].n_users} users), "
                             f"worst rate {results[0].estimate.worst_rate:.3f}")
    if len(multipliers) > 1:
        outcome.notes.append(f"calibrate reached different multipliers {sorted(multipliers)}")
    return outcome


# ---------------------------------------------------------------------------
# metrics


def in_refs(outcome: Outcome) -> tuple[list[float], list[float]]:
    """Trial and unit times in refs, the time of one yardstick run nearby.

    The host is shared with other tenants, which slow this process by up to
    half for seconds or minutes at a time.  The yardstick slows with it, so
    a time divided by the yardstick's keeps the program's own cost.  A trial
    is divided by the median yardstick of the trials around it; a unit, less
    its yardsticks, by the median of its own."""
    trials = [t for unit in outcome.unit_trial_ms for t in unit]
    yards = [y for unit in outcome.unit_yard_ms for y in unit]
    n, w = min(len(trials), len(yards)), YARDSTICK_WINDOW
    trial_refs = [trials[i] / statistics.median(yards[max(0, i - w):i + w + 1])
                  for i in range(n)]
    unit_refs = [(unit_s * 1e3 - sum(ys)) / statistics.median(ys)
                 for unit_s, ys in zip(outcome.unit_s, outcome.unit_yard_ms) if ys]
    return trial_refs or [0.0], unit_refs or [0.0]   # no trials: the run failed


def end_to_end_metrics(outcome: Outcome, probe: Probe, setup_s: list[float]) -> dict:
    trial_refs, unit_refs = in_refs(outcome)
    p50, p90 = np.percentile(trial_refs, [50, 90])
    unit_ref = statistics.median(unit_refs)
    return {
        "trial_p50_ref": float(p50),
        "trial_p90_ref": float(p90),
        "user_trials_per_ref": probe.user_trials / len(outcome.unit_s) / unit_ref,
        "calibrate_ref": unit_ref,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(setup: dict[str, LayerStats], measured: dict[str, LayerStats],
                  probe: Probe, user_trials_per_ref: float) -> dict:
    """Per-trial times and counts of the measured phase; set-up layers
    (config builds, partitions, calibrate) per call, set-up included."""
    none = LayerStats()
    trials = max(measured.get("harness.run_trial", none).calls, 1)

    def per_trial_ms(layer: str, self_time: bool = False) -> float:
        stats = measured.get(layer, none)
        return (stats.self_ns if self_time else stats.total_ns) / 1e6 / trials

    def per_call_ms(layer: str, self_time: bool = False) -> float:
        both = [s for s in (setup.get(layer), measured.get(layer)) if s is not None]
        calls = sum(s.calls for s in both)
        ns = sum(s.self_ns if self_time else s.total_ns for s in both)
        return ns / 1e6 / calls if calls else 0.0

    out = {
        "randomness.fourwise_rademacher.ms": per_trial_ms("randomness.fourwise_rademacher"),
        "hadamard.fwht_inplace.ms": per_trial_ms("hadamard.fwht_inplace"),
        "brht.sample_brht.self_ms": per_trial_ms("brht.sample_brht", True),
        "brht.brht_apply.self_ms": per_trial_ms("brht.brht_apply", True),
        "harness.gen_gaussian_samples.ms": per_trial_ms("harness.gen_gaussian_samples"),
        "harness.run_trial.self_ms": per_trial_ms("harness.run_trial", True),
        "binary_test.collision_statistic.ms": per_trial_ms("binary_test.collision_statistic"),
        "harness.budget_audit.ms": per_trial_ms("harness.budget_audit"),
        "protocols.private_coin_protocol.self_ms":
            per_trial_ms("protocols.private_coin_protocol", True),
        "protocols.limited_coin_protocol.self_ms":
            per_trial_ms("protocols.limited_coin_protocol", True),
        "protocols.greedy_partition.ms": per_call_ms("protocols.greedy_partition"),
        "harness.config_build.ms": per_call_ms("harness.config_build"),
        "harness.calibrate.self_ms": per_call_ms("harness.calibrate", True),
    }
    for name in COUNTS:
        out[name] = probe.counts[name] / trials
    for module in ("randomness", "hadamard", "brht", "binary_test", "harness", "protocols"):
        out[f"{module}.errors"] = sum(
            s.errors for phase in (setup, measured)
            for layer, s in phase.items() if layer.startswith(module + "."))
    out["trace.user_trials_per_ref"] = user_trials_per_ref
    return out


def layer_unit(name: str) -> str:
    if name == "trace.user_trials_per_ref":
        return "1/ref"
    return "count" if name in COUNTS or name.endswith(".errors") else "ms"


def dominant_shares(measured: dict[str, LayerStats]) -> dict[str, float]:
    """Shares of a trial (run_trial plus its audit) held by each workload's
    stated dominant layer."""
    def ns(layer: str, self_time: bool = False) -> int:
        stats = measured.get(layer, LayerStats())
        return stats.self_ns if self_time else stats.total_ns

    trial = ns("harness.run_trial") + ns("harness.budget_audit")
    if trial == 0:
        return {}
    return {
        "four-wise signs": ns("randomness.fourwise_rademacher") / trial,
        "FWHT + Gaussian samples":
            (ns("hadamard.fwht_inplace") + ns("harness.gen_gaussian_samples")) / trial,
        "run_trial self + referee + audit":
            (ns("harness.run_trial", True) + ns("binary_test.collision_statistic")
             + ns("harness.budget_audit")) / trial,
    }


# ---------------------------------------------------------------------------
# provenance and the command line


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: Workload, seed: int) -> dict:
    return {
        "commit": git_commit(),
        "distmeantest": dmt.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "sample_path": workload.sample_path,
        "config_sha256": {name: hashlib.sha256((CONFIG_DIR / f"{name}.json").read_bytes())
                          .hexdigest()[:16] for name in workload.configs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(workload, args.seed), sort_keys=True))

    probe = Probe()
    with Tracer() as tracer:
        install(tracer, probe, full=bool(args.trace))
        setup_s: list[float] = []
        while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
            configs = None  # free the previous set before building the next
            elapsed, configs = set_up(workload, args.seed)
            setup_s.append(elapsed)
        setup_layers = tracer.take()
        probe.reset()
        if workload.trials_per_mode:
            outcome = measure_batches(workload, configs, probe, args.seed, args.seconds)
        else:
            outcome = measure_calibrations(configs, probe, args.seconds)
        measured_layers = tracer.take()

    # a trial that raised inside run_trial or budget_audit has failed too
    trial, audit = (measured_layers.get(name, LayerStats())
                    for name in ("harness.run_trial", "harness.budget_audit"))
    attempted = trial.calls
    failed = probe.failed + trial.errors + audit.errors
    end_to_end = end_to_end_metrics(outcome, probe, setup_s)
    print(f"workload {args.workload}: {len(outcome.unit_s)} "
          f"{'passes' if workload.trials_per_mode else 'calibrate calls'} in "
          f"{sum(outcome.unit_s):.1f} s, {attempted} trials, path {workload.sample_path}")
    for note in outcome.notes + outcome.errors[:10] + probe.problems[:10]:
        print("  " + note)
    print(f"  failed_frac {failed / max(attempted, 1):.4f} ({failed} of {attempted} trials)")

    if args.trace:
        metrics = layer_metrics(setup_layers, measured_layers, probe,
                                end_to_end["user_trials_per_ref"])
        units = {name: layer_unit(name) for name in metrics}
        for label, share in dominant_shares(measured_layers).items():
            print(f"  share of a trial: {label} {100 * share:.1f}%")
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
        every = [t for trials in outcome.unit_trial_ms for t in trials]
        yards = [y for unit in outcome.unit_yard_ms for y in unit]
        work_s = [u - sum(ys) / 1e3 for u, ys in zip(outcome.unit_s, outcome.unit_yard_ms)]
        ms_p50, ms_p90 = np.percentile(every or [0.0], [50, 90])
        print(f"  trial times: {len(every)} samples, each over the median of up to "
              f"{2 * YARDSTICK_WINDOW + 1} of {len(yards)} yardsticks; calibrate_ref: median "
              f"of {len(work_s)} units; setup_s: median of {len(setup_s)}")
        print(f"  in wall time, yardsticks left out: trial p50 {ms_p50:.3f} ms, "
              f"p90 {ms_p90:.3f} ms, median unit {statistics.median(work_s):.3f} s, "
              f"{probe.user_trials / sum(work_s):.6g} user-trials/s; "
              f"1 ref = median yardstick {statistics.median(yards or [0.0]):.4f} ms")
    for name, value in metrics.items():
        note = outcome.unit_note if name == "calibrate_ref" and not args.trace else ""
        print(f"  {name:42s} {value:14.6g} {units[name]:5s} {note}")

    correct = outcome.checks_ok and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
