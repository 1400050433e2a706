"""The median/percentile rule: a tail percentile needs 10 samples beyond."""

import statistics

import pytest

from bench.stats import quartiles, spread, summarize, tail_percentile


def test_small_samples_get_median_and_n_only():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["n"] == 3
    assert summary["median"] == 2.0
    assert not any(key.startswith("p") for key in summary)


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(list(range(99))) is None  # only 9 beyond p90
    p, value = tail_percentile(list(range(100)))
    assert p == 90 and value == 89  # 10 samples (90..99) beyond
    assert "p90" in summarize(list(range(100)))


def test_highest_allowed_percentile_wins():
    assert tail_percentile(list(range(1000)))[0] == 99
    assert tail_percentile(list(range(10000)))[0] == 99.9
    assert "p99" in summarize(list(range(1000)))


def test_quartiles_match_the_statistics_module():
    data = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert quartiles(data) == tuple(statistics.quantiles(data, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([7.0]) == 0.0
    q1, median, q3 = quartiles(data)
    assert spread(data) == pytest.approx((q3 - q1) / median)


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        summarize([])
