"""Self-test of the benchmark: tracing restores what it wraps and only observes.

    python3 -m pytest -q bench/test_bench.py
"""

import json

import pytest

import run
from run import dmt
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bindings(tracer: Tracer) -> dict:
    return {(owner, attr): raw for owner, attr, raw in tracer._saved}


def _small(name: str, users: int) -> "dmt.PopulationConfig":
    """A workload config cut down to `users` users of its first user kind."""
    raw = json.loads((run.CONFIG_DIR / f"{name}.json").read_text())
    raw["users"] = [dict(raw["users"][0], count=users)]
    return dmt.PopulationConfig.from_dict(raw)


def _traced(fn):
    probe = run.Probe()
    with Tracer() as tracer:
        run.install(tracer, probe, full=True)
        result = fn()
        layers = tracer.take()
    return result, probe, layers


@pytest.mark.parametrize("fail", [False, True])
def test_tracer_restores_every_wrapped_binding(fail):
    tracer = Tracer()
    try:
        with tracer:
            run.install(tracer, run.Probe(), full=True)
            wrapped = _bindings(tracer)
            assert all(vars(owner)[attr] is not raw for (owner, attr), raw in wrapped.items())
            if fail:
                raise KeyError("inside the traced block")
    except KeyError:
        assert fail
    assert wrapped and tracer._saved == []
    assert all(vars(owner)[attr] is raw for (owner, attr), raw in wrapped.items())


@pytest.mark.parametrize("name,path", [
    ("hetero_samples", "law"), ("hetero_comm", "law"), ("mix_and_match", "law"),
    ("wide_rotation", "law"), ("literal_batch", "literal"),
])
def test_traced_batch_matches_untraced(name, path):
    config = dmt.PopulationConfig.from_json_file(str(run.CONFIG_DIR / f"{name}.json"))

    def batch():
        records = dmt.run_batch(config, 1, master_seed=3, sample_path=path, timing=False).records
        return [(r.mean_mode, r.verdict, r.bits_total, r.public_bits_used) for r in records]

    untraced = batch()
    traced, probe, layers = _traced(batch)
    assert traced == untraced
    assert probe.failed == 0 and layers["harness.run_trial"].calls == len(untraced)


def test_traced_calibrate_matches_untraced():
    config = _small("calibrate_mix", 1600)

    def calibrate():
        result = dmt.calibrate(config, 0.45, trials=4, master_seed=run.CALIBRATE_SEED)
        return result.multiplier, result.n_users, result.estimate

    untraced = calibrate()
    traced, probe, layers = _traced(calibrate)
    assert traced == untraced
    assert layers["harness.calibrate"].calls == 1 and layers["harness.config_build"].calls >= 1


def test_counts_follow_from_the_config():
    config = _small("wide_rotation", 7 * 16)
    _, probe, _ = _traced(lambda: dmt.run_trial(config, dmt.MeanSpec("null", 0.0), 0, 1))
    assert probe.counts["randomness.signs"] == 7 * config.d        # seven b = d sign vectors
    assert probe.counts["randomness.seed_bits"] == config.s
    assert probe.counts["protocols.transcript_bits"] == config.n_users() * 64


def test_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    layers = run.layer_metrics({}, {}, run.Probe(), 1.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        {name: run.layer_unit(name) for name in layers}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)



def test_times_in_refs_divide_by_nearby_yardsticks():
    outcome = run.Outcome(unit_s=[0.020, 0.030],
                          unit_trial_ms=[[4.0, 8.0], [6.0, 9.0]],
                          unit_yard_ms=[[1.0, 2.0], [3.0, 3.0]])
    trial_refs, unit_refs = run.in_refs(outcome)
    # YARDSTICK_WINDOW = 2: trial i over the median yardstick of i-2 .. i+2
    assert trial_refs == [4.0 / 2.0, 8.0 / 2.5, 6.0 / 2.5, 9.0 / 3.0]
    assert unit_refs == [(20.0 - 3.0) / 1.5, (30.0 - 6.0) / 3.0]


def test_every_audit_is_followed_by_one_yardstick():
    config = _small("wide_rotation", 7 * 16)
    for full in (False, True):
        probe = run.Probe()
        with Tracer() as tracer:
            run.install(tracer, probe, full=full)
            dmt.run_batch(config, 2, master_seed=1, timing=True)
        assert len(probe.yard_ns) == len(probe.trial_ns) == 2 * len(config.mean_modes)
