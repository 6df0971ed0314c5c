"""The percentile rule and the steadiness measure."""

import statistics

import pytest

from bench import stats


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 6) >= stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([7.0], 99.9) == 7.0


def test_timing_row_reports_count_median_and_tail():
    row = stats.timing_row([float(i) for i in range(1, 201)])
    assert row == {"n": 200, "p50": 100.5, "tail_p": 95.0, "tail": 190.0}
    assert stats.timing_row([1.0, 2.0, 3.0])["tail_p"] is None


def test_geomean_and_quartile_spread():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)
