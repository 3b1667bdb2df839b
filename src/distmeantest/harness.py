"""Monte Carlo harness: populations, trials, error estimation, calibration.

A `PopulationConfig` fixes the instance (dimension, distance, public-seed
budget, per-user resources, protocol); `run_trial` draws one mean vector and
one transcript-plus-decision; `estimate_error` turns repeated trials into
type-I/type-II rates with exact bit auditing on every transcript, and
`calibrate` doubles the population until they meet a target, through the
same trial loop, stopping each candidate once its failure is certain.

A population is held as runs of alike users (`UserRuns`: m, ell, count),
so reading a config, validating it, `scaled` copies for `calibrate` and
`to_dict` cost per run, not per user, and so does building the config's
protocol plan (`PopulationConfig.plan`, built on first use and kept on the
config), which builds its per-user and per-row arrays only when they are
read.  The per-user arrays of the population (`ms`, `ells`) are likewise
built on first use, by the literal path or the audit of a transcript the
plan did not lay out.

Each trial reads its own (mean, public seed, data) streams, derived from
(master seed, mode, trial) and built only when read, and runs the plan
through the trial body `run_plan` with the bit source its sampling path
names:

* ``literal``  — `LiteralSource` sign-quantizes every user's real Gaussian
  samples, drawn for the whole trial in one call;
* ``law``      — `LawSource` draws the column counts from their exact law,
  and the transmitted bits only when the transcript is read.

The law path is the default: it makes six-figure populations tractable on a
single core.  The plan, both sources and the bit law they share live in
:mod:`distmeantest.protocols`; of a plan the harness reads only its
dimension, seed bits, send bounds and per-user lengths, and its identity.

Every lower bound the harness checks (a count, the dimension, the seed
budget, the master seed) raises from `errors.check_at_least`, and every
integer field and the population's user count must fit in an int64, which
`_expect` checks.

The audit reads only a transcript's lengths and counts.  The plan's sends
are checked against the budgets once per config, run by run; each trial
checks only that its transcript is laid out by the config's plan, its user
count and its public bits.  So a law trial, its audit and `calibrate`
build no array of one entry per user or per referee row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binary_test import ACCEPT, REJECT, bpmt_decide, check_epsilon
from .brht import brht_apply, next_pow2, sample_brht
from .errors import CalibrationFailedError, ParameterError, check_at_least
# sample_brht, brht_apply, greedy_partition and the two coin protocols are
# bound here as well so that bench/run.py can trace them where this module
# binds them
from .protocols import (
    Decision,
    LawSource,
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
    run_starts,
)
from .randomness import PublicSeed

__all__ = [
    "MEAN_MODES",
    "PROTOCOL_NAMES",
    "SAMPLE_PATHS",
    "MAX_MULTIPLIER",
    "MeanSpec",
    "PopulationConfig",
    "UserRuns",
    "TrialRecord",
    "ErrorEstimate",
    "BatchResult",
    "AuditReport",
    "Candidate",
    "CalibrationResult",
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


def _check_mode(mode: str) -> None:
    if mode not in MEAN_MODES:
        raise ParameterError(f"unknown mean mode {mode!r}")


# ---------------------------------------------------------------------------
# mean vectors and Gaussian sampling


@dataclass(frozen=True)
class MeanSpec:
    """Which alternative to draw: a mode name plus the target norm."""

    mode: str
    norm: float

    def __post_init__(self):
        _check_mode(self.mode)
        if self.mode == "null":
            if self.norm != 0.0:
                raise ParameterError("null mode must have norm 0")
        elif not (self.norm > 0.0):
            raise ParameterError(f"alternative modes need norm > 0, got {self.norm}")


def make_mean(spec: MeanSpec, d: int, stream: np.random.Generator | None) -> np.ndarray:
    """Draw the mean vector: zero, a single spike, a flat spread, or a random
    direction, always with Euclidean norm spec.norm (to 1e-12).  Only a
    random direction reads `stream`."""
    check_at_least(d, 1, "dimension")
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
    check_at_least(count, 1, "sample count")
    samples = stream.standard_normal((count, mu.shape[0]))
    samples += mu
    return samples


# ---------------------------------------------------------------------------
# population configuration

_JSON_KINDS = {int: "an integer", (int, float): "a number", str: "a string",
               list: "an array", dict: "an object"}


# JSON integers are unbounded; every integer field, and a population's user
# count, is held as an int64
_INT64 = np.iinfo(np.int64)


def _expect(value, kind, what: str):
    """value, if it has the JSON type `kind` (booleans are not numbers) and,
    if it is an integer, fits in an int64: the one int64 check, which also
    bounds a population's user count."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParameterError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    if isinstance(value, int) and not _INT64.min <= value <= _INT64.max:
        raise ParameterError(f"{what} {value} does not fit in a 64-bit integer")
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
        _check_mode(mode)
    if len(set(modes)) != len(modes) or "null" not in modes:
        raise ParameterError(
            f"mean modes must be distinct and include 'null' for type-I estimation, got {modes}")


class UserRuns:
    """A population's users as runs: count[i] consecutive users hold m[i]
    samples and ell[i] message bits each.

    The runs are kept in normal form, no two adjacent runs alike, so two
    populations of the same users hold the same runs, and building, tiling,
    comparing and writing a population cost per run, not per user.  The
    runs read as the sequence of the users' `UserSpec`s: `len` is the user
    count, iteration yields every user, and equality compares the runs.
    The per-user arrays `ms` and `ells` are one `np.repeat` each, built on
    first use and read-only.  m, ell and count must be 1-D arrays of one
    length, every m, ell and count must be >= 1 (`check_at_least`, on each
    array's least entry), and the user count must fit in an int64 (the
    int64 check of the JSON fields, `_expect`).
    """

    def __init__(self, m, ell, count):
        m, ell, count = (np.asarray(a, dtype=np.int64) for a in (m, ell, count))
        if m.ndim != 1 or not m.shape == ell.shape == count.shape:
            raise ParameterError(f"user runs need m, ell and count as 1-D arrays of one length, "
                                 f"got shapes {m.shape}, {ell.shape} and {count.shape}")
        for values, what in ((m, "user sample count"), (ell, "user bit budget"),
                             (count, "user count")):
            check_at_least(int(values.min(initial=1)), 1, what)
        # summed over Python ints, which cannot wrap as an int64 sum could
        self.n = _expect(sum(count.tolist()), int, "count total")
        start = run_starts(m, ell)
        self.m, self.ell = m[start], ell[start]
        self.count = np.add.reduceat(count, start) if start.size else count[start]
        for runs in (self.m, self.ell, self.count):
            runs.flags.writeable = False

    @classmethod
    def of(cls, users) -> "UserRuns":
        """The runs of a sequence of `UserSpec`s, read in one pass."""
        pairs = np.array([(u.m, u.ell) for u in users], dtype=np.int64).reshape(-1, 2)
        return cls(pairs[:, 0], pairs[:, 1], np.ones(pairs.shape[0], dtype=np.int64))

    def tiled(self, k: int) -> "UserRuns":
        """The users repeated k times; the seam between copies merges when
        the last run matches the first, so one run stays one run."""
        if self.m.size == 1:
            return UserRuns(self.m, self.ell, [_expect(self.n * k, int, "count total")])
        return UserRuns(np.tile(self.m, k), np.tile(self.ell, k), np.tile(self.count, k))

    @cached_property
    def ms(self) -> np.ndarray:
        return self._per_user(self.m)

    @cached_property
    def ells(self) -> np.ndarray:
        return self._per_user(self.ell)

    def _per_user(self, values: np.ndarray) -> np.ndarray:
        out = np.repeat(values, self.count)
        out.flags.writeable = False
        return out

    @property
    def mean_ell(self) -> float:
        """The users' mean bit budget, from the runs' exact integer sum."""
        return sum(e * c for e, c in zip(self.ell.tolist(), self.count.tolist())) / self.n

    def to_dicts(self) -> list[dict]:
        return [{"m": m, "ell": ell, "count": count} for m, ell, count
                in zip(self.m.tolist(), self.ell.tolist(), self.count.tolist())]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        for m, ell, count in zip(self.m.tolist(), self.ell.tolist(), self.count.tolist()):
            yield from itertools.repeat(UserSpec(m, ell), count)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UserRuns):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in ((self.m, other.m), (self.ell, other.ell),
                                                     (self.count, other.count)))

    def __repr__(self) -> str:
        return f"UserRuns({self.to_dicts()})"


@dataclass(frozen=True)
class PopulationConfig:
    """An instance of the distributed testing problem plus simulation choices.

    The users are held as `UserRuns`: a sequence of `UserSpec`s given as
    `users` is compressed into runs once, at construction, and validation,
    `scaled`, `to_dict`, `digest`, `n_users` and the plan read the runs.
    Frozen: the runs are read-only, and the per-user arrays (`ms`, `ells`)
    and the protocol plan are derived on first use and kept, so they are
    never rebuilt per trial; no field may be reassigned after construction
    (`scaled`, `from_dict` and `dataclasses.replace` build new configs).
    """

    d: int
    epsilon: float
    s: int
    protocol: str
    users: UserRuns
    partition: list[list[int]] | None = None
    mean_modes: list[str] = field(default_factory=lambda: list(MEAN_MODES))

    def __post_init__(self):
        if not isinstance(self.users, UserRuns):
            object.__setattr__(self, "users", UserRuns.of(self.users))
        check_at_least(self.d, 1, "dimension")
        check_epsilon(self.epsilon)
        check_at_least(self.s, 0, "public seed budget")
        if self.protocol not in PROTOCOL_NAMES:
            raise ParameterError(f"unknown protocol {self.protocol!r}")
        check_at_least(self.users.n, 1, "population size")
        _check_modes(self.mean_modes)
        if self.partition is not None and self.protocol != "mix_and_match":
            raise ParameterError("explicit partitions only apply to mix_and_match")
        if self.protocol in ("private", "limited", "hetero_comm") and np.any(self.users.m != 1):
            raise ParameterError(f"{self.protocol} expects exactly one sample per user")
        if (self.protocol in ("private", "limited", "hetero_samples")
                and np.any(self.users.ell != self.users.ell[0])):
            raise ParameterError(f"{self.protocol} expects a uniform bit budget")

    def n_users(self) -> int:
        return self.users.n

    def ms(self) -> np.ndarray:
        return self.users.ms

    def ells(self) -> np.ndarray:
        return self.users.ells

    @cached_property
    def plan(self) -> Plan:
        """The protocol plan, in the dimension padded to a power of two, built
        from the user runs."""
        users, d, n = self.users, next_pow2(self.d), self.n_users()
        ell = int(users.ell[0])
        if self.protocol == "private":
            return private_coin_plan(n, d, min(ell, d), self.epsilon)
        if self.protocol == "limited":
            return limited_coin_plan(n, d, min(ell, d), self.epsilon, self.s)
        if self.protocol == "hetero_samples":
            return hetero_samples_plan(users.m, d, ell, self.epsilon, self.s, users.count)
        if self.protocol == "hetero_comm":
            return hetero_comm_plan(users.ell, d, self.epsilon, self.s, users.count)
        return mix_and_match_plan(users.m, users.ell, d, self.epsilon, self.s, self.partition,
                                  users.count)

    @cached_property
    def _plan_overdraws(self) -> tuple[str, ...]:
        """The budget violations of the plan's sends: what `budget_audit`
        reports for every transcript laid out by the plan, checked once.
        Every plan states the most the users of each of the config's runs
        send, so the check costs per run; only a plan past some budget has
        its per-user lengths read, to name the users."""
        if np.all(self.plan.bounds[0] <= self.users.ell):
            return ()
        return _overdrawn_users(self.plan.lengths, self.ells())

    def scaled(self, multiplier: int) -> "PopulationConfig":
        """Repeat the user mix `multiplier` times.  An explicit partition is
        repeated with it, copy by copy: copy j's groups name users j * n + i
        for the n users of the config, so `scaled(1)` equals the config."""
        check_at_least(multiplier, 1, "multiplier")
        n = self.n_users()
        partition = None if self.partition is None else [
            [j * n + i for i in group] for j in range(multiplier) for group in self.partition]
        return dataclasses.replace(self, users=self.users.tiled(multiplier), partition=partition,
                                   mean_modes=list(self.mean_modes))

    @classmethod
    def from_dict(cls, raw: dict) -> "PopulationConfig":
        """Build a config from parsed JSON.  A value of the wrong JSON type, an
        unknown key or a missing required key is rejected with
        ParameterError; nothing is coerced or ignored."""
        _expect_fields(raw, "config", ("d", "epsilon", "s", "protocol"),
                       ("users", "partition", "mean_modes"))
        runs = []
        for entry in _expect(raw.get("users", []), list, "users"):
            _expect_fields(entry, "users entry", ("m", "ell"), ("count",))
            runs.append((_expect(entry["m"], int, "m"), _expect(entry["ell"], int, "ell"),
                         _expect(entry.get("count", 1), int, "count")))
        users = UserRuns(*np.array(runs, dtype=np.int64).reshape(-1, 3).T)
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
        out = {"d": self.d, "epsilon": self.epsilon, "s": self.s,
               "protocol": self.protocol, "users": self.users.to_dicts(),
               "mean_modes": list(self.mean_modes)}
        if self.partition is not None:
            out["partition"] = self.partition
        return out

    def digest(self) -> str:
        """sha256 of the canonical JSON of `to_dict()`: sorted keys, no spaces."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def from_json_file(cls, path: str) -> "PopulationConfig":
        """The config of a JSON file; one nested past the parser's recursion
        limit is rejected with ParameterError, as any other malformed config."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except RecursionError:
                raise ParameterError(f"config {path} is nested too deeply to read") from None


# ---------------------------------------------------------------------------
# one trial


# a trial's independent streams, in the order of their spawn keys
_STREAMS = ("mean", "public", "data")


def _trial_stream(master_seed: int, mode: str, trial_index: int, stream: str
                  ) -> np.random.Generator:
    """One of the (mean, public-seed, data) streams of trial (mode,
    trial_index): child j of `SeedSequence(master_seed, spawn_key=(mode,
    trial)).spawn(3)`, built on its own, so a trial builds only the streams
    it reads."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        master_seed, spawn_key=(MEAN_MODES.index(mode), trial_index, _STREAMS.index(stream)))))


def run_trial(config: PopulationConfig, mean: MeanSpec, trial_index: int,
              master_seed: int = 0, sample_path: str = "law"
              ) -> tuple[Decision, Transcript]:
    """One full simulated protocol execution.

    Derives (mean, public-seed, data) streams from (master_seed, mode, trial),
    each built only when read (the mean stream for random directions, the
    public stream when the plan's transforms draw seed bits), draws the mean
    and the shared seed, and runs the configured protocol's cached plan with
    the bit source of `sample_path`; the literal path draws every user's
    samples as consecutive rows of one array, in one call, and gives the
    source each user's sample count.  Dimensions that are not powers of two
    are embedded into the next power of two: the mean is zero-padded and
    samples carry fresh unit-variance noise in the padded coordinates
    (realized by sampling in the padded dimension).
    """
    if sample_path not in SAMPLE_PATHS:
        raise ParameterError(f"unknown sample path {sample_path!r}")
    check_at_least(master_seed, 0, "master seed")
    check_at_least(trial_index, 0, "trial index")
    plan = config.plan
    key = (master_seed, mean.mode, trial_index)
    mu = np.zeros(plan.d)
    mu[:config.d] = make_mean(mean, config.d, _trial_stream(*key, "mean")
                              if mean.mode == "random_direction" else None)
    # only the plan.seed_bits <= s bits the transforms read are drawn: the
    # public stream's bits are prefix-stable, so they are the first bits of
    # a full s-bit seed, and a trial costs the same at any s
    seed = (PublicSeed.random(plan.seed_bits, _trial_stream(*key, "public")) if plan.seed_bits
            else PublicSeed(np.zeros(0)))
    data_rng = _trial_stream(*key, "data")
    if sample_path == "law":
        source = LawSource(mu, data_rng)
    else:
        ms = config.ms()
        source = LiteralSource(gen_gaussian_samples(mu, int(ms.sum()), data_rng), ms)
    return run_plan(plan, seed, source)


# ---------------------------------------------------------------------------
# audit, records, error estimation


@dataclass
class AuditReport:
    ok: bool
    violations: list[str]


def _overdrawn_users(sent: np.ndarray, ells: np.ndarray) -> tuple[str, ...]:
    """One violation per user whose bit count `sent` exceeds its budget."""
    return tuple(f"user {int(k)} sent {int(sent[k])} bits, budget {int(ells[k])}"
                 for k in np.flatnonzero(sent > ells))


def budget_audit(transcript: Transcript, config: PopulationConfig) -> AuditReport:
    """Exact integer checks: per-user bits within budget, seed within s.

    A transcript whose layout is the config's plan (every trial's, since
    `run_trial` lays its transcripts out by `config.plan`) sends what the
    plan states, so the plan is checked against the budgets once per config,
    run by run (`PopulationConfig._plan_overdraws`), and each trial checks
    only the user count and the public bits.  Any other transcript, such as
    one laid out by hand, gets the full per-user check; one whose layout is
    not a `Plan` never makes the config build its plan.
    """
    violations: list[str] = []
    if transcript.n_users != config.n_users():
        violations.append(
            f"transcript covers {transcript.n_users} users, population has {config.n_users()}")
    elif isinstance(transcript.layout, Plan) and transcript.layout is config.plan:
        violations.extend(config._plan_overdraws)
    else:
        violations.extend(_overdrawn_users(transcript.bits_sent, config.ells()))
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
        return dataclasses.astuple(self)


# the CSV header: the record's fields, in the order `row` gives them
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(TrialRecord))


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
    check_at_least(trials, 1, "trials")
    return _trial_loop(config, trials, protocol_runner or _protocol(master_seed, sample_path),
                       timing)


def _protocol(master_seed: int, sample_path: str):
    """The real protocol as a runner (config, mean, trial); run_trial is
    looked up on every call, so a rebinding of it is seen."""
    return lambda cfg, mean, trial: run_trial(cfg, mean, trial, master_seed, sample_path)


def _trial_loop(config: PopulationConfig, trials: int, runner, timing: bool,
                fail_above: float | None = None) -> BatchResult:
    """The trial loop of `run_batch` and `calibrate`: every mode's trials in
    order, each transcript audited and recorded.  Given `fail_above`, the
    loop stops after the first trial that leaves some mode with
    wrong / trials > fail_above: the counts only grow, so the full batch's
    worst rate would exceed fail_above too.  The records, the violations
    and the estimate's counts then cover the trials that ran."""
    records: list[TrialRecord] = []
    violations: list[str] = []
    wrong: dict[str, int] = {mode: 0 for mode in config.mean_modes}
    means = {mode: MeanSpec(mode=mode, norm=0.0 if mode == "null" else config.epsilon)
             for mode in config.mean_modes}
    for mode, trial in itertools.product(config.mean_modes, range(trials)):
        t0 = time.perf_counter_ns()
        decision, transcript = runner(config, means[mode], trial)
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
        if fail_above is not None and wrong[mode] / trials > fail_above:
            break
    type2 = {mode: wrong[mode] / trials for mode in config.mean_modes if mode != "null"}
    estimate = ErrorEstimate(trials=trials, type1_rate=wrong["null"] / trials,
                             type2_rates=type2, ci_halfwidth=0.0)
    worst = estimate.worst_rate
    estimate.ci_halfwidth = 1.96 * math.sqrt(worst * (1.0 - worst) / trials)
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
class Candidate:
    """One population `calibrate` measured: its multiplier and user count,
    the trials it ran over all modes, and whether it stopped before the
    last of them, its failure already certain."""

    multiplier: int
    n_users: int
    trials_run: int
    stopped_early: bool


@dataclass
class CalibrationResult:
    """The winning multiplier, its population and full estimate; every
    candidate tried, in order; and the budget violations of every trial
    that ran, each prefixed with its candidate's multiplier."""

    multiplier: int
    n_users: int
    estimate: ErrorEstimate
    scaling_constant: float
    candidates: list[Candidate]
    audit_violations: list[str]


def calibrate(config: PopulationConfig, target_error: float, trials: int = 200,
              master_seed: int = 0, max_multiplier: int = MAX_MULTIPLIER,
              sample_path: str = "law") -> CalibrationResult:
    """Double the population until the worst measured rate meets the target.

    The user mix is repeated 1x, 2x, 4x, ... and each candidate is measured
    with `trials` trials per mode; the first multiplier whose worst rate is
    <= target_error wins.  Raises CalibrationFailedError past max_multiplier,
    carrying the budget violations of every trial that ran.
    The scaling constant n * eps^2 * sqrt(mean ell) / d is reported for
    comparison across configurations.

    A candidate stops at the first trial after which some mode's
    wrong / trials exceeds target_error, the expression the final check
    reads, so it stops exactly when its full batch would fail; the winner
    runs every trial.  The result is the one the full batches give.  Each
    candidate's plan is built before its first trial, so an infeasible
    candidate raises before any trial runs.  Every trial is audited, and
    the violations of every trial that ran are kept in the result.
    """
    if not (0.0 < target_error < 0.5):
        raise ParameterError(f"target error must be in (0, 0.5), got {target_error}")
    check_at_least(trials, 1, "trials")
    check_at_least(max_multiplier, 1, "max_multiplier")
    runner = _protocol(master_seed, sample_path)
    candidates: list[Candidate] = []
    violations: list[str] = []
    multiplier = 1
    while multiplier <= max_multiplier:
        candidate = config.scaled(multiplier)
        candidate.plan      # built here, before the first trial and outside its timed span
        batch = _trial_loop(candidate, trials, runner, timing=False, fail_above=target_error)
        n, ran = candidate.n_users(), len(batch.records)
        candidates.append(Candidate(multiplier, n, ran, ran < trials * len(candidate.mean_modes)))
        violations.extend(f"x{multiplier} {v}" for v in batch.audit_violations)
        if batch.estimate.worst_rate <= target_error:
            constant = n * config.epsilon ** 2 * math.sqrt(candidate.users.mean_ell) / config.d
            return CalibrationResult(multiplier=multiplier, n_users=n, estimate=batch.estimate,
                                     scaling_constant=constant, candidates=candidates,
                                     audit_violations=violations)
        multiplier *= 2
    raise CalibrationFailedError(
        f"no multiplier up to {max_multiplier} reached worst error {target_error}", violations)


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
    check_at_least(master_seed, 0, "master seed")
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
