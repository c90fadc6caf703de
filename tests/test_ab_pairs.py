"""tools/ab_pairs.py's summary of alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [("jobs_per_s", "higher"), ("job_p50_s", "lower"), ("energy_budget_frac", "lower")]


def _runs(jobs, p50):
    return [{"jobs_per_s": j, "job_p50_s": s, "energy_budget_frac": 1.0}
            for j, s in zip(jobs, p50)]


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    parent = _runs([10, 11, 12, 13, 14], [0.5, 0.5, 0.5, 0.5, 0.5])
    change = _runs([12, 11, 15, 16, 17], [0.4, 0.5, 0.6, 0.3, 0.3])
    s = ab_pairs.summarize(parent, change, METRICS)
    assert s["jobs_per_s"]["parent_median"] == 12
    assert s["jobs_per_s"]["change_median"] == 15
    assert s["jobs_per_s"]["change_vs_parent"] == 0.25
    assert s["jobs_per_s"]["parent_quartiles"] == [11, 12, 13]
    assert s["jobs_per_s"]["change_quartiles"] == [12, 15, 16]
    assert s["jobs_per_s"]["change_better_in"] == "4 of 5"  # pair 2 ties
    assert s["job_p50_s"]["change_better_in"] == "3 of 5"  # lower is better
    assert s["energy_budget_frac"]["change_better_in"] == "0 of 5"
    assert not any(m["gain"] for m in s.values())  # 4 of 5 is under nine tenths


def test_a_gain_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_parent_spread():
    parent = _runs(range(100, 110), [1.0] * 10)
    wide = ab_pairs.summarize(parent, _runs(range(101, 111), [1.0] * 10), METRICS)
    assert wide["jobs_per_s"]["change_better_in"] == "10 of 10"
    # the medians are 1 apart, the parent's quartiles 4.5 apart
    assert wide["jobs_per_s"]["parent_quartiles"] == [102.25, 104.5, 106.75]
    assert not wide["jobs_per_s"]["gain"]
    clear = ab_pairs.summarize(parent, _runs(range(110, 120), [1.0] * 10), METRICS)
    assert clear["jobs_per_s"]["gain"]
    slower = ab_pairs.summarize(parent, _runs(range(90, 100), [1.0] * 10), METRICS)
    assert slower["jobs_per_s"]["change_better_in"] == "0 of 10"
    assert not slower["jobs_per_s"]["gain"]


def test_one_pair_has_its_values_as_quartiles():
    s = ab_pairs.summarize(_runs([3.0], [2.0]), _runs([4.0], [1.0]), METRICS)
    assert s["jobs_per_s"]["parent_quartiles"] == [3.0, 3.0, 3.0]
    assert s["job_p50_s"]["change_better_in"] == "1 of 1"
    assert not s["job_p50_s"]["gain"]  # a claim needs ten pairs


def test_summary_needs_matching_runs():
    with pytest.raises(ValueError):
        ab_pairs.summarize(_runs([1], [1]), [], METRICS)
    with pytest.raises(ValueError):
        ab_pairs.summarize([], [], METRICS)
