"""tools/bench_pairs.py: the summary of paired benchmark runs, on fixed numbers."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "user_trials_per_ref", "unit": "1/ref", "better": "higher", "bound": 0.25}
LOWER = {"name": "trial_p50_ref", "unit": "ref", "better": "lower", "bound": 0.25}


def run(trials: float, p50: float, setup: float, failed: int = 0) -> dict:
    """One `bench/run.py` summary line, as parsed JSON."""
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"user_trials_per_ref": {"value": trials, "unit": "1/ref"},
                        "trial_p50_ref": {"value": p50, "unit": "ref"},
                        "setup_s": {"value": setup, "unit": "s"}}}


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], [9, 10, 11, 12, 13, 40], [0.5, 0.25]])
def test_quartiles_match_numpy_percentiles(values):
    assert bench_pairs.quartiles(values) == pytest.approx(
        tuple(np.percentile(values, [25, 50, 75])))


def paired(parent: list[float], change: list[float], p50: tuple = (1.0, 1.1)) -> list[dict]:
    """Pairs of runs from user_trials_per_ref values; trial_p50_ref is fixed per side."""
    return [{"seed": 7 + i, "first": ("parent", "change")[i % 2],
             "parent": run(p, p50[0], 0.002), "change": run(c, p50[1], 0.001)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_of_a_higher_better_gain():
    parent = [10, 12, 11, 13, 9, 10, 12, 11, 13, 9]
    change = [14, 15, 13, 16, 12, 14, 15, 13, 16, 12]
    summary = bench_pairs.summarize(paired(parent, change), [HIGHER, LOWER])
    assert summary["seeds"] == list(range(7, 17))
    assert summary["first"] == ["parent", "change"] * 5
    assert summary["correct"] and summary["attempted"] == {"parent": 1000, "change": 1000}
    gain = summary["metrics"]["user_trials_per_ref"]
    assert gain["parent"] == {"median": 11, "q1": 10, "q3": 12, "runs": parent}
    assert (gain["change"]["median"], gain["change"]["q1"], gain["change"]["q3"]) == (14, 13, 15)
    assert gain["change_over_parent"] == pytest.approx(14 / 11)
    assert gain["worse_by"] == pytest.approx(-3 / 11)
    assert gain["wins"] == "10 of 10"
    assert gain["parent_quartile_distance_over_median"] == pytest.approx(2 / 11)
    loss = summary["metrics"]["trial_p50_ref"]
    assert loss["change_over_parent"] == pytest.approx(1.1)
    assert loss["worse_by"] == pytest.approx(0.1)
    assert loss["wins"] == "0 of 10"
    assert "setup_s" not in summary["metrics"]

    claim = bench_pairs.claim_summary("w", "user_trials_per_ref", summary)
    assert (claim["median_difference"], claim["parent_quartile_distance"]) == (3, 2)
    assert claim["pairs_won"] == "10 of 10" and claim["met"]
    assert not bench_pairs.claim_summary("w", "trial_p50_ref", summary)["met"]


def test_claim_needs_ten_pairs():
    summary = bench_pairs.summarize(paired([10, 12, 11, 13, 9], [14, 15, 13, 16, 12]), [HIGHER])
    claim = bench_pairs.claim_summary("w", "user_trials_per_ref", summary)
    assert claim["pairs_won"] == "5 of 5" and claim["median_difference"] > 2
    assert not claim["met"]


def test_claim_reads_the_unrounded_medians():
    # medians 1e-6 apart against a parent quartile distance of 4e-7; rounded to
    # 6 significant digits first, both medians would read 1.0 and the claim fail
    parent = [1.0 - 2e-7, 1.0 + 2e-7] * 5
    change = [1.000001 - 1e-8, 1.000001 + 1e-8] * 5
    claim = bench_pairs.claim_summary("w", "user_trials_per_ref",
                                      bench_pairs.summarize(paired(parent, change), [HIGHER]))
    assert claim["pairs_won"] == "10 of 10" and claim["met"]
    assert bench_pairs.rounded(claim)["median_difference"] == pytest.approx(1e-6, rel=1e-5)


def test_rounded_keeps_six_significant_digits_everywhere():
    value = {"a": [0.000123456789, 3748.21621345], "b": {"c": 1.23456789}, "d": "x", "e": 7,
             "f": True}
    assert bench_pairs.rounded(value) == {"a": [0.000123457, 3748.22], "b": {"c": 1.23457},
                                          "d": "x", "e": 7, "f": True}


def test_claim_needs_nine_of_ten_pairs():
    parent = [10.0] * 10
    change = [12.0] * 8 + [9.0] * 2
    pairs = [{"seed": i, "first": "parent", "parent": run(p, 1.0, 1.0),
              "change": run(c, 1.0, 1.0)} for i, (p, c) in enumerate(zip(parent, change))]
    claim = bench_pairs.claim_summary("w", "user_trials_per_ref",
                                      bench_pairs.summarize(pairs, [HIGHER]))
    assert claim["pairs_won"] == "8 of 10" and not claim["met"]


def test_failed_runs_are_counted():
    pairs = [{"seed": i, "first": "parent", "parent": run(1.0, 1.0, 1.0),
              "change": run(1.0, 1.0, 1.0, failed=i)} for i in range(3)]
    summary = bench_pairs.summarize(pairs, [HIGHER])
    assert summary["failed"] == {"parent": 0, "change": 3} and not summary["correct"]


def test_setup_spread_against_the_parents_own_ratios():
    spread = bench_pairs.setup_spread([1.0, 2.0, 4.0], [1.5, 1.5])
    assert (spread["parent_q1"], spread["parent_median"], spread["parent_q3"]) == (1.5, 2, 3)
    # later over earlier: 2/1, 4/1, 4/2
    assert (spread["parent_vs_parent_ratio_q1"], spread["parent_vs_parent_ratio_median"],
            spread["parent_vs_parent_ratio_q3"]) == (2, 2, 3)
    assert spread["parent_vs_parent_ratio_range"] == [2, 4]
    assert spread["change_median"] == 1.5 and spread["change_over_parent"] == 0.75
    assert spread["change_median_inside_parent_quartiles"]
