"""The percentile rule: quote a level only with ten samples beyond it."""

import pytest

from perfbench import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.5) == 50
    assert stats.percentile(values, 0.95) == 95
    assert stats.percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "n, level",
    [
        (39, None),     # p75 of 39 leaves 9 beyond
        (40, 0.75),
        (99, 0.75),
        (100, 0.90),
        (199, 0.90),
        (200, 0.95),    # exactly ten beyond, despite 0.95 * 200 in floating point
        (999, 0.95),
        (1000, 0.99),
        (10_000, 0.999),
    ],
)
def test_highest_level_with_ten_samples_beyond(n, level):
    assert stats.supported_level(n) == level
    if level is not None:
        assert stats.samples_beyond(n, level) >= stats.MIN_BEYOND


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert stats.spread(values) == 0.0
    import statistics
    values = [9.0, 9.5, 10.0, 10.5, 11.0, 9.8, 10.2, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_level_names():
    assert stats.level_name(0.95) == "p95"
    assert stats.level_name(0.999) == "p99.9"
    assert stats.level_name(0.75) == "p75"
