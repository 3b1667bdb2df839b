"""Monte Carlo harness: populations, trials, error estimation, calibration.

A `PopulationConfig` fixes the instance (dimension, distance, public-seed
budget, per-user resources, protocol); `run_trial` draws one mean vector and
one transcript-plus-decision; `estimate_error` turns repeated trials into
type-I/type-II rates with exact bit auditing on every transcript.

Two sampling paths give every repetition's bits the same law.  Both run
the protocol once, as written in :mod:`distmeantest.protocols`: `run_trial`
hands the config's plan (`PopulationConfig.plan`, built on first use and
kept on the config), with the trial's public seed and a bit source, to the
shared trial body, which draws the trial's seven transforms first and then
calls the source once for the whole trial.  The plan states its
flip-probability groups (one group of block size 1 when each user holds one
sample) and, in `Plan.reads_blocks`, whether repetition r reads block r + 1
of each sender's samples or the sender's one sample.  Only the bit source
differs:

* ``literal``  — `LiteralSource` sign-quantizes every user's real Gaussian
  samples and sums the bits per column.  A trial draws all of its samples in
  one call, as consecutive rows of one array, user after user, and passes
  the row where each user's samples start; the plan's `reads_blocks` says
  which rows each repetition reads.
* ``law``      — `LawSource` draws every repetition's column counts from
  their exact law in one binomial call, one draw per repetition, flip
  probability group and column; the bits are drawn only when the transcript
  is read, from their exact law given those counts, and never a bit that is
  not sent.

The referee reads only the column counts.  The `Transcript` holds the
repetition streams as the bit source returned them (arrays, or the law
path's deferred draws), with the plan as its layout.  The audit and the
trial records read only its lengths and counts: the per-user lengths are
derived once per plan, and every trial's transcript shares them, so the
audit checks every user's bits against its budget on every trial without
rebuilding them.  No trial draws or builds the user-major messages; they
are built on the first read of the transcript's data (`message`,
`serialize`).

The law path is the default: it makes six-figure populations tractable on a
single core.  The paths also agree jointly across repetitions except for
hetero_comm, whose seven repetitions all reuse each user's one sample while
the law path draws them independently; the test suite covers both facts.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binary_test import ACCEPT, REJECT, bpmt_decide
from .brht import BrhtSpec, brht_apply, next_pow2, sample_brht
from .errors import CalibrationFailedError, ParameterError
# sample_brht, greedy_partition and the two coin protocols are bound here as
# well so that bench/run.py can trace them where this module binds them
from .protocols import (
    Decision,
    LiteralSource,
    Plan,
    Transcript,
    UserSpec,
    greedy_partition,
    hetero_comm_plan,
    hetero_samples_plan,
    limited_coin_plan,
    limited_coin_protocol,
    mix_and_match_plan,
    private_coin_plan,
    private_coin_protocol,
    run_plan,
)
from .randomness import PublicSeed

__all__ = [
    "MEAN_MODES",
    "PROTOCOL_NAMES",
    "SAMPLE_PATHS",
    "MAX_MULTIPLIER",
    "MeanSpec",
    "PopulationConfig",
    "TrialRecord",
    "ErrorEstimate",
    "BatchResult",
    "AuditReport",
    "CalibrationResult",
    "sign_flip_prob",
    "make_mean",
    "gen_gaussian_samples",
    "run_trial",
    "budget_audit",
    "run_batch",
    "estimate_error",
    "calibrate",
    "bpmt_spike_alternative",
    "bpmt_spread_alternative",
    "bpmt_error_rates",
    "calibrate_bpmt",
    "write_records_csv",
    "CSV_COLUMNS",
]

MEAN_MODES = ("null", "spike", "spread", "random_direction")
PROTOCOL_NAMES = ("private", "limited", "hetero_samples", "hetero_comm", "mix_and_match")
SAMPLE_PATHS = ("law", "literal")
# the largest population multiplier `calibrate` tries by default
MAX_MULTIPLIER = 1 << 14

CSV_COLUMNS = ("trial", "mean_mode", "verdict", "bits_total", "public_bits_used", "wall_micros")


# ---------------------------------------------------------------------------
# mean vectors and Gaussian sampling


_ERFC = np.frompyfunc(math.erfc, 1, 1)


def sign_flip_prob(mu):
    """P(coordinate with mean mu quantizes to 1) = 0.5 * erfc(-mu/sqrt(2)),
    elementwise over a scalar or an array of means."""
    return (0.5 * np.asarray(_ERFC(-np.asarray(mu, dtype=np.float64) / math.sqrt(2.0)),
                             dtype=np.float64))[()]


@dataclass(frozen=True)
class MeanSpec:
    """Which alternative to draw: a mode name plus the target norm."""

    mode: str
    norm: float

    def __post_init__(self):
        if self.mode not in MEAN_MODES:
            raise ParameterError(f"unknown mean mode {self.mode!r}")
        if self.mode == "null":
            if self.norm != 0.0:
                raise ParameterError("null mode must have norm 0")
        elif not (self.norm > 0.0):
            raise ParameterError(f"alternative modes need norm > 0, got {self.norm}")


def make_mean(spec: MeanSpec, d: int, stream: np.random.Generator) -> np.ndarray:
    """Draw the mean vector: zero, a single spike, a flat spread, or a random
    direction, always with Euclidean norm spec.norm (to 1e-12)."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if spec.mode == "null":
        return np.zeros(d)
    if spec.mode == "spike":
        mu = np.zeros(d)
        mu[0] = spec.norm
        return mu
    if spec.mode == "spread":
        return np.full(d, spec.norm / math.sqrt(d))
    direction = stream.standard_normal(d)
    nrm = np.linalg.norm(direction)
    while nrm == 0.0:
        direction = stream.standard_normal(d)
        nrm = np.linalg.norm(direction)
    return direction * (spec.norm / nrm)


def gen_gaussian_samples(mu: np.ndarray, count: int,
                         stream: np.random.Generator) -> np.ndarray:
    """count i.i.d. draws from the identity-covariance Gaussian around mu, as
    the rows of one (count, d) array; mu is added in place, so the draw needs
    no second array of that size."""
    mu = np.asarray(mu, dtype=np.float64)
    if count < 1:
        raise ParameterError(f"sample count must be >= 1, got {count}")
    samples = stream.standard_normal((count, mu.shape[0]))
    samples += mu
    return samples


# ---------------------------------------------------------------------------
# population configuration

_JSON_KINDS = {int: "an integer", (int, float): "a number", str: "a string",
               list: "an array", dict: "an object"}


def _expect(value, kind, what: str):
    """value, if it has the JSON type `kind` (booleans are not numbers)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParameterError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _expect_fields(raw, what: str, required: tuple[str, ...], optional: tuple[str, ...]) -> None:
    """Check that raw is a JSON object holding every required key and no key
    outside required + optional."""
    _expect(raw, dict, what)
    unknown = [key for key in raw if key not in required + optional]
    if unknown:
        raise ParameterError(f"{what} has unknown field {unknown[0]!r}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ParameterError(f"{what} is missing required field {missing[0]!r}")


def _check_modes(modes) -> None:
    """Mean modes must be known, distinct, and include 'null' for type-I
    estimation."""
    for mode in modes:
        if mode not in MEAN_MODES:
            raise ParameterError(f"unknown mean mode {mode!r}")
    if len(set(modes)) != len(modes) or "null" not in modes:
        raise ParameterError(
            f"mean modes must be distinct and include 'null' for type-I estimation, got {modes}")


@dataclass(frozen=True)
class PopulationConfig:
    """An instance of the distributed testing problem plus simulation choices.

    Frozen: the resource arrays (built at construction, which validates
    them) and the protocol plan (built on first use, from those arrays) are
    derived once and kept on the config (populations run to ~10^6 users, so
    they must not be rebuilt per trial); no field may be reassigned after
    construction (`scaled` and `from_dict` build new configs).  Mutating the
    `users` list in place is not guarded against and not supported.
    """

    d: int
    epsilon: float
    s: int
    protocol: str
    users: list[UserSpec]
    partition: list[list[int]] | None = None
    mean_modes: list[str] = field(default_factory=lambda: list(MEAN_MODES))

    def __post_init__(self):
        if self.d < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.d}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ParameterError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.s < 0:
            raise ParameterError(f"public seed budget must be >= 0, got {self.s}")
        if self.protocol not in PROTOCOL_NAMES:
            raise ParameterError(f"unknown protocol {self.protocol!r}")
        if not self.users:
            raise ParameterError("population must contain at least one user")
        _check_modes(self.mean_modes)
        if self.partition is not None and self.protocol != "mix_and_match":
            raise ParameterError("explicit partitions only apply to mix_and_match")
        self._validate_population()

    def _validate_population(self) -> None:
        ms = self.ms()
        ells = self.ells()
        if self.protocol in ("private", "limited", "hetero_comm") and np.any(ms != 1):
            raise ParameterError(f"{self.protocol} expects exactly one sample per user")
        if self.protocol in ("private", "limited", "hetero_samples"):
            if np.unique(ells).shape[0] != 1:
                raise ParameterError(f"{self.protocol} expects a uniform bit budget")

    def n_users(self) -> int:
        return len(self.users)

    def ms(self) -> np.ndarray:
        return self._resources[0]

    def ells(self) -> np.ndarray:
        return self._resources[1]

    @cached_property
    def _resources(self) -> np.ndarray:
        """Every user's sample count (row 0) and bit budget (row 1)."""
        return np.array([[u.m for u in self.users], [u.ell for u in self.users]], dtype=np.int64)

    @cached_property
    def plan(self) -> Plan:
        """The protocol plan, in the dimension padded to a power of two."""
        d, n, ell = next_pow2(self.d), self.n_users(), int(self.ells()[0])
        if self.protocol == "private":
            return private_coin_plan(n, d, min(ell, d), self.epsilon)
        if self.protocol == "limited":
            return limited_coin_plan(n, d, min(ell, d), self.epsilon, self.s)
        if self.protocol == "hetero_samples":
            return hetero_samples_plan(self.ms(), d, ell, self.epsilon, self.s)
        if self.protocol == "hetero_comm":
            return hetero_comm_plan(self.ells(), d, self.epsilon, self.s)
        return mix_and_match_plan(self.ms(), self.ells(), d, self.epsilon, self.s, self.partition)

    def scaled(self, multiplier: int) -> "PopulationConfig":
        """Repeat the user mix `multiplier` times (partition recomputed)."""
        if multiplier < 1:
            raise ParameterError(f"multiplier must be >= 1, got {multiplier}")
        return PopulationConfig(
            d=self.d, epsilon=self.epsilon, s=self.s, protocol=self.protocol,
            users=list(self.users) * multiplier, partition=None,
            mean_modes=list(self.mean_modes))

    @classmethod
    def from_dict(cls, raw: dict) -> "PopulationConfig":
        """Build a config from parsed JSON.  A value of the wrong JSON type, an
        unknown key or a missing required key is rejected with
        ParameterError; nothing is coerced or ignored."""
        _expect_fields(raw, "config", ("d", "epsilon", "s", "protocol"),
                       ("users", "partition", "mean_modes"))
        users: list[UserSpec] = []
        for entry in _expect(raw.get("users", []), list, "users"):
            _expect_fields(entry, "users entry", ("m", "ell"), ("count",))
            count = _expect(entry.get("count", 1), int, "count")
            if count < 1:
                raise ParameterError(f"user count must be >= 1, got {count}")
            users += [UserSpec(m=_expect(entry["m"], int, "m"),
                               ell=_expect(entry["ell"], int, "ell"))] * count
        partition = raw.get("partition")
        for group in [] if partition is None else _expect(partition, list, "partition"):
            for i in _expect(group, list, "partition group"):
                _expect(i, int, "partition entry")
        modes = _expect(raw.get("mean_modes", list(MEAN_MODES)), list, "mean_modes")
        for mode in modes:
            _expect(mode, str, "mean mode")
        return cls(d=_expect(raw["d"], int, "d"),
                   epsilon=float(_expect(raw["epsilon"], (int, float), "epsilon")),
                   s=_expect(raw["s"], int, "s"), protocol=_expect(raw["protocol"], str, "protocol"),
                   users=users, partition=partition, mean_modes=list(modes))

    def to_dict(self) -> dict:
        # run-length encode the user list to keep large configs readable
        runs = [{"m": u.m, "ell": u.ell, "count": len(list(group))}
                for u, group in itertools.groupby(self.users)]
        out = {"d": self.d, "epsilon": self.epsilon, "s": self.s,
               "protocol": self.protocol, "users": runs,
               "mean_modes": list(self.mean_modes)}
        if self.partition is not None:
            out["partition"] = self.partition
        return out

    @classmethod
    def from_json_file(cls, path: str) -> "PopulationConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# one trial


def _trial_streams(master_seed: int, mode: str, trial_index: int
                   ) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """Independent (mean, public-seed, data) streams keyed by (mode, trial)."""
    root = np.random.SeedSequence(master_seed,
                                  spawn_key=(MEAN_MODES.index(mode), trial_index))
    kids = root.spawn(3)
    return tuple(np.random.Generator(np.random.PCG64(k)) for k in kids)


class LawSource:
    """Bit source that draws a trial's column counts from their exact law,
    and each repetition's transmitted bits only when the transcript is read.

    A quantized rotated coordinate is 1 with probability Phi(mu_rot[c]),
    where mu_rot is the rotated mean, scaled by sqrt(block) after a block of
    samples is aggregated (block 1 when each user holds one sample):
    rotations are orthogonal, so rotated samples are Gaussian with identity
    covariance around mu_rot, and distinct bits of one repetition come from
    distinct (user, coordinate) pairs.  The rows of one flip-probability group
    are therefore i.i.d., and a column's count over them is one binomial
    draw; all repetitions' counts are one binomial call over a (repetitions,
    groups, width) array.  Each stream is drawn from the exact conditional
    law given its counts: in each group and column the ones sit on a
    uniformly random subset of the group's rows, and a trailing partial row
    (hetero_comm only) is drawn bit by bit.  Repetitions are drawn
    independently: exact where they use disjoint samples, which holds for
    every protocol but hetero_comm.
    """

    def __init__(self, mu: np.ndarray, rng: np.random.Generator):
        self.mu = mu
        self.rng = rng

    def draw(self, plan: Plan, specs: list[BrhtSpec | None]):
        """Each repetition's column counts over its full rows, and a callable
        per repetition that draws its stream given them."""
        mu_rot = np.array([self.mu if spec is None else brht_apply(spec, self.mu, keep=plan.width)
                           for spec in specs])
        p = sign_flip_prob(np.sqrt(plan.groups[0])[:, None] * mu_rot[:, None, :])
        # one draw per repetition, group and column, in that order
        counts = self.rng.binomial(plan.group_rows[:, None], p)
        return counts.sum(axis=1), [lambda r=r: self._stream(plan, r, counts[r], p[r])
                                    for r in range(len(specs))]

    def _stream(self, plan: Plan, r: int, counts: np.ndarray, p: np.ndarray) -> np.ndarray:
        rows, row_group = plan.group_rows, plan.groups[1]
        full = np.empty((row_group.shape[0], plan.width), dtype=np.uint8)
        for g, n_g in enumerate(rows.tolist()):
            ones_first = np.arange(n_g)[:, None] < counts[g]
            full[row_group == g] = self.rng.permuted(ones_first, axis=0)
        rest = plan.totals[r] - full.size
        return np.concatenate([full.reshape(-1), self.rng.random(rest) < p[0, :rest]])


def run_trial(config: PopulationConfig, mean: MeanSpec, trial_index: int,
              master_seed: int = 0, sample_path: str = "law"
              ) -> tuple[Decision, Transcript]:
    """One full simulated protocol execution.

    Derives (mean, public-seed, data) streams from (master_seed, mode, trial),
    draws the mean and the shared seed, and runs the configured protocol's
    cached plan with the bit source of `sample_path`; the literal path draws
    every user's samples as consecutive rows of one array.  Dimensions that are
    not powers of two are embedded into the next power of two: the mean is
    zero-padded and samples carry fresh unit-variance noise in the padded
    coordinates (realized by sampling in the padded dimension).
    """
    if sample_path not in SAMPLE_PATHS:
        raise ParameterError(f"unknown sample path {sample_path!r}")
    mean_rng, public_rng, data_rng = _trial_streams(master_seed, mean.mode, trial_index)
    plan = config.plan
    mu = np.pad(make_mean(mean, config.d, mean_rng), (0, plan.d - config.d))
    seed = PublicSeed.random(config.s, public_rng)
    if sample_path == "law":
        source = LawSource(mu, data_rng)
    else:
        ms = config.ms()
        source = LiteralSource(gen_gaussian_samples(mu, int(ms.sum()), data_rng), np.cumsum(ms) - ms)
    return run_plan(plan, seed, source)


# ---------------------------------------------------------------------------
# audit, records, error estimation


@dataclass
class AuditReport:
    ok: bool
    violations: list[str]


def budget_audit(transcript: Transcript, config: PopulationConfig) -> AuditReport:
    """Exact integer checks: per-user bits within budget, seed within s."""
    violations: list[str] = []
    if transcript.n_users != config.n_users():
        violations.append(
            f"transcript covers {transcript.n_users} users, population has {config.n_users()}")
    else:
        ells = config.ells()
        sent = transcript.bits_sent
        for k in np.flatnonzero(sent > ells):
            violations.append(f"user {int(k)} sent {int(sent[k])} bits, budget {int(ells[k])}")
    if transcript.public_bits_used > config.s:
        violations.append(
            f"protocol consumed {transcript.public_bits_used} public bits, budget {config.s}")
    return AuditReport(ok=not violations, violations=violations)


@dataclass
class TrialRecord:
    trial: int
    mean_mode: str
    verdict: str
    bits_total: int
    public_bits_used: int
    wall_micros: int

    def row(self) -> tuple:
        return (self.trial, self.mean_mode, self.verdict, self.bits_total,
                self.public_bits_used, self.wall_micros)


@dataclass
class ErrorEstimate:
    """Empirical error rates; ci_halfwidth is the binomial 95% halfwidth of
    the worst measured rate: 1.96 * sqrt(rate*(1-rate)/trials)."""

    trials: int
    type1_rate: float
    type2_rates: dict[str, float]
    ci_halfwidth: float

    @property
    def worst_rate(self) -> float:
        return max([self.type1_rate, *self.type2_rates.values()])


@dataclass
class BatchResult:
    estimate: ErrorEstimate
    records: list[TrialRecord]
    audit_violations: list[str]


def run_batch(config: PopulationConfig, trials: int, master_seed: int = 0,
              sample_path: str = "law", timing: bool = True,
              protocol_runner=None) -> BatchResult:
    """Run `trials` independent trials per mean mode of the config, audit
    every transcript, and tally error rates.  `protocol_runner` (config,
    mean, trial) -> (decision, transcript) overrides the real protocol when
    injected."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    records: list[TrialRecord] = []
    violations: list[str] = []
    wrong: dict[str, int] = {mode: 0 for mode in config.mean_modes}
    for mode in config.mean_modes:
        mean = MeanSpec(mode=mode, norm=0.0 if mode == "null" else config.epsilon)
        for trial in range(trials):
            t0 = time.perf_counter_ns()
            if protocol_runner is None:
                decision, transcript = run_trial(config, mean, trial, master_seed, sample_path)
            else:
                decision, transcript = protocol_runner(config, mean, trial)
            micros = (time.perf_counter_ns() - t0) // 1000 if timing else 0
            report = budget_audit(transcript, config)
            violations.extend(f"mode={mode} trial={trial}: {v}" for v in report.violations)
            wrong_call = (decision.verdict == REJECT) if mode == "null" \
                else (decision.verdict == ACCEPT)
            wrong[mode] += int(wrong_call)
            records.append(TrialRecord(
                trial=trial, mean_mode=mode, verdict=decision.verdict,
                bits_total=transcript.total_bits,
                public_bits_used=transcript.public_bits_used, wall_micros=int(micros)))
    type1 = wrong["null"] / trials
    type2 = {mode: wrong[mode] / trials for mode in config.mean_modes if mode != "null"}
    worst = max([type1, *type2.values()]) if type2 else type1
    ci = 1.96 * math.sqrt(worst * (1.0 - worst) / trials)
    estimate = ErrorEstimate(trials=trials, type1_rate=type1, type2_rates=type2,
                             ci_halfwidth=ci)
    return BatchResult(estimate=estimate, records=records, audit_violations=violations)


def estimate_error(config: PopulationConfig, trials: int, master_seed: int = 0,
                   sample_path: str = "law", protocol_runner=None) -> ErrorEstimate:
    return run_batch(config, trials, master_seed, sample_path,
                     timing=False, protocol_runner=protocol_runner).estimate


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    """Deterministic CSV: fixed column order, \n newlines, integer fields."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(",".join(str(v) for v in rec.row()) + "\n")


# ---------------------------------------------------------------------------
# calibration


@dataclass
class CalibrationResult:
    multiplier: int
    n_users: int
    estimate: ErrorEstimate
    scaling_constant: float


def calibrate(config: PopulationConfig, target_error: float, trials: int = 200,
              master_seed: int = 0, max_multiplier: int = MAX_MULTIPLIER,
              sample_path: str = "law") -> CalibrationResult:
    """Double the population until the worst measured rate meets the target.

    The user mix is repeated 1x, 2x, 4x, ... and each candidate is measured
    with `trials` trials per mode; the first multiplier whose worst rate is
    <= target_error wins.  Raises CalibrationFailedError past max_multiplier.
    The scaling constant n * eps^2 * sqrt(mean ell) / d is reported for
    comparison across configurations.
    """
    if not (0.0 < target_error < 0.5):
        raise ParameterError(f"target error must be in (0, 0.5), got {target_error}")
    multiplier = 1
    while multiplier <= max_multiplier:
        candidate = config.scaled(multiplier)
        estimate = estimate_error(candidate, trials, master_seed, sample_path=sample_path)
        if estimate.worst_rate <= target_error:
            n = candidate.n_users()
            constant = (n * config.epsilon ** 2
                        * math.sqrt(float(candidate.ells().mean())) / config.d)
            return CalibrationResult(multiplier=multiplier, n_users=n,
                                     estimate=estimate, scaling_constant=constant)
        multiplier *= 2
    raise CalibrationFailedError(
        f"no multiplier up to {max_multiplier} reached worst error {target_error}")


# ---------------------------------------------------------------------------
# centralized binary-test calibration (no protocol, samples live at the referee)


def bpmt_spike_alternative(d: int, epsilon: float) -> np.ndarray:
    """Mean vector concentrating ||p - u|| = epsilon on as few coordinates as
    possible while keeping every coordinate deviation at most 0.45."""
    k = max(1, math.ceil((epsilon / 0.45) ** 2))
    if k > d:
        raise ParameterError(f"epsilon {epsilon} does not fit in {d} coordinates")
    p = np.full(d, 0.5)
    p[:k] += epsilon / math.sqrt(k)
    return p


def bpmt_spread_alternative(d: int, epsilon: float) -> np.ndarray:
    p = np.full(d, 0.5 + epsilon / math.sqrt(d))
    if p[0] >= 1.0:
        raise ParameterError(f"epsilon {epsilon} too large for a flat spread in {d} dims")
    return p


def bpmt_error_rates(d: int, epsilon: float, n: int, trials: int,
                     master_seed: int = 0) -> dict[str, float]:
    """Monte Carlo error rates of the centralized test at sample size n."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        master_seed, spawn_key=(97, n))))
    alternatives = {"spike": bpmt_spike_alternative(d, epsilon),
                    "spread": bpmt_spread_alternative(d, epsilon)}
    wrong = {"null": 0, "spike": 0, "spread": 0}
    for _ in range(trials):
        null_sample = (rng.random((n, d)) < 0.5).astype(np.uint8)
        wrong["null"] += int(bpmt_decide(null_sample, epsilon) == REJECT)
        for name, p in alternatives.items():
            alt_sample = (rng.random((n, d)) < p).astype(np.uint8)
            wrong[name] += int(bpmt_decide(alt_sample, epsilon) == ACCEPT)
    return {name: count / trials for name, count in wrong.items()}


def calibrate_bpmt(d: int, epsilon: float, target_error: float, cap: float | None = None,
                   trials: int = 500, master_seed: int = 0) -> int:
    """Doubling search on the centralized test's sample size, capped at
    64 * sqrt(d) / epsilon^2 by default."""
    if cap is None:
        cap = 64.0 * math.sqrt(d) / (epsilon * epsilon)
    n = 8
    while n <= cap:
        rates = bpmt_error_rates(d, epsilon, n, trials, master_seed)
        if max(rates.values()) <= target_error:
            return n
        n *= 2
    raise CalibrationFailedError(
        f"centralized test needs more than {int(cap)} samples for error {target_error}")
