"""Unit tests for the benchmark's summary and bound helpers."""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import metrics  # noqa: E402


def test_summarize_reports_median_quartiles_and_count():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.summarize(values) == {"median": 3.0, "q1": q1,
                                         "q3": q3, "n": 5}


def test_summarize_single_sample_has_degenerate_quartiles():
    assert metrics.summarize([7]) == {"median": 7.0, "q1": 7.0,
                                      "q3": 7.0, "n": 1}


def test_summarize_refuses_empty():
    with pytest.raises(ValueError):
        metrics.summarize([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))            # 1..100
    assert metrics.percentile(values, 90) == 90
    assert metrics.percentile(values, 50) == 50
    assert metrics.percentile(list(reversed(values)), 90) == 90


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError, match="need 10"):
        metrics.percentile(list(range(99)), 90)
    assert metrics.percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        metrics.percentile(list(range(19)), 50)
    assert metrics.percentile(list(range(20)), 50) == 9


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        metrics.percentile(list(range(1000)), 100)


@pytest.mark.parametrize("pct, needed", [(90, 100), (50, 20), (99, 1000)])
def test_samples_needed_matches_percentile_rule(pct, needed):
    assert metrics.samples_needed(pct) == needed
    metrics.percentile(range(needed), pct)
    with pytest.raises(ValueError):
        metrics.percentile(range(needed - 1), pct)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.5, 9.5, 10.0, 11.5]
    q1, median, q3 = statistics.quantiles(values, n=4)[0], \
        statistics.median(values), statistics.quantiles(values, n=4)[2]
    assert metrics.spread(values) == pytest.approx((q3 - q1) / median)
    assert metrics.spread([4.0] * 10) == 0.0


def test_worse_by_respects_direction():
    assert metrics.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert metrics.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert metrics.worse_by(10.0, 9.0, "higher") == pytest.approx(0.1)
    with pytest.raises(ValueError):
        metrics.worse_by(10.0, 9.0, "faster")


def test_within_bound_compares_medians():
    base = [10.0, 10.2, 9.8]
    assert metrics.within_bound(base, [11.4, 11.5, 11.6], 0.15, "lower")
    assert not metrics.within_bound(base, [11.6, 11.7, 11.8], 0.15,
                                    "lower")
    assert metrics.within_bound(base, [5.0], 0.15, "lower")
    assert not metrics.within_bound(base, [8.0], 0.15, "higher")
