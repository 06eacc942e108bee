import pytest

from perfbench.stats import elementwise_min, intervals, relative_spread, tail


@pytest.mark.parametrize(
    "n, label, beyond",
    [
        (20, "p50", 10),
        (99, "p50", 49),
        (100, "p90", 10),
        (999, "p90", 99),
        (1000, "p99", 10),
        (9999, "p99", 99),
        (10_000, "p99.9", 10),
        (99_999, "p99.9", 99),
        (100_000, "p99.99", 10),
        (1_000_000, "p99.999", 10),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, label, beyond):
    values = list(range(n, 0, -1))  # unsorted on purpose
    found = tail(values)
    assert found.label == label
    assert found.samples == n
    assert found.beyond == beyond
    # nearest rank over 1..n: the value is the rank itself
    assert found.value == n - beyond


def test_tail_needs_twenty_samples():
    assert tail(list(range(19))) is None
    assert tail([]) is None


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0] * 5) == 0.0
    assert relative_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_elementwise_min_takes_each_units_fastest_repetition():
    assert elementwise_min([[3.0, 1.0, 5.0], [2.0, 4.0, 5.0]]) == [2.0, 1.0, 5.0]
    assert elementwise_min([[1.0, 2.0]]) == [1.0, 2.0]


def test_elementwise_min_refuses_repetitions_of_different_work():
    with pytest.raises(ValueError):
        elementwise_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        elementwise_min([])


def test_intervals_cover_start_to_end():
    gaps = intervals(1.0, [1.5, 3.0], 3.25)
    assert gaps == [0.5, 1.5, 0.25]
    assert intervals(1.0, [], 2.0) == [1.0]
