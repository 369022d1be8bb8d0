"""Time-series ring buffers, mergeable histograms, delta encoding."""

import pytest

from repro.obs.metrics import Histogram
from repro.obs.series import (
    TIER_WIDTHS_S,
    SeriesStore,
    TimeSeries,
    delta_encode,
    merge_counter_totals,
)


# --------------------------------------------------------------- TimeSeries


def test_series_records_and_queries():
    series = TimeSeries("depth")
    for tick in range(10):
        series.record(float(tick), tick * 2.0)
    assert len(series) == 10
    assert series.latest() == (9.0, 18.0)
    assert series.values(since=7.0) == [(7.0, 14.0), (8.0, 16.0), (9.0, 18.0)]
    assert series.span_s() == 9.0


def test_series_raw_ring_is_bounded():
    series = TimeSeries("depth", raw_capacity=4)
    for tick in range(10):
        series.record(float(tick), float(tick))
    assert len(series) == 4
    # The ring keeps the NEWEST samples.
    assert series.values()[0] == (6.0, 6.0)


def test_series_tiers_downsample_and_cascade():
    series = TimeSeries("depth")
    # Four samples per second for 25 s: tier 0 (1 s) buckets seal on
    # each second boundary, tier 1 (10 s) buckets on each tenth.
    for quarter in range(100):
        at = quarter * 0.25
        series.record(at, float(quarter))
    tier0 = series.tier_buckets(0)
    assert len(tier0) == 24  # seconds 0..23 sealed; second 24 still open
    assert tier0[0].count == 4
    assert tier0[0].mean == pytest.approx((0 + 1 + 2 + 3) / 4)
    assert tier0[0].min == 0.0 and tier0[0].max == 3.0
    tier1 = series.tier_buckets(1)
    assert len(tier1) == 2  # decades 0 and 1 sealed
    # Tier-1 folds the tier-0 bucket MEANS, one per sealed second.
    assert tier1[0].count == 10
    assert tier1[0].start == 0.0 and tier1[1].start == 10.0


def test_series_drops_out_of_order_samples():
    series = TimeSeries("depth")
    series.record(5.0, 1.0)
    series.record(3.0, 99.0)  # time went backwards: dropped, not folded
    series.record(5.0, 2.0)  # equal timestamps are fine
    assert series.dropped_out_of_order == 1
    assert series.values() == [(5.0, 1.0), (5.0, 2.0)]


def test_series_capacity_validated():
    with pytest.raises(ValueError):
        TimeSeries("x", raw_capacity=1)
    with pytest.raises(ValueError):
        TimeSeries("x", tier_capacity=0)
    assert len(TIER_WIDTHS_S) == 2


def test_series_store_creates_and_reuses():
    store = SeriesStore()
    store.record("a", 1.0, 10.0)
    store.record("a", 2.0, 20.0)
    store.record("b", 1.0, 5.0)
    assert store.names() == ["a", "b"]
    assert len(store) == 2
    assert store.series("a") is store.get("a")
    assert store.get("a").latest() == (2.0, 20.0)
    assert store.get("missing") is None


# -------------------------------------------------- mergeable histograms


def make_sketch(values, bounds=(0.1, 0.5, 1.0)):
    histogram = Histogram("lat", bounds=bounds)
    for value in values:
        histogram.observe(value)
    return histogram


def merged(histograms, bounds):
    return Histogram("merged", bounds).merge(*histograms)


def test_sketch_mirrors_histogram():
    """A copy (what a monitor ships) carries every observation."""
    values = (0.05, 0.3, 0.3, 0.9, 3.0)
    histogram = make_sketch(values)
    sketch = histogram.copy()
    assert sketch == histogram and sketch is not histogram
    assert sketch.name == "lat"
    assert sketch.count == 5
    assert sketch.counts == histogram.counts
    assert sketch.quantile(0.99) == histogram.quantile(0.99)
    assert sketch.mean == pytest.approx(histogram.mean)


def test_sketch_merge_is_commutative():
    a = make_sketch((0.05, 0.3))
    b = make_sketch((0.9, 3.0, 0.2))
    ab = a.copy().merge(b)
    ba = b.copy().merge(a)
    assert ab == ba
    assert ab.count == 5
    assert ab.max == 3.0


def test_sketch_merge_is_associative():
    a = make_sketch((0.05, 0.3))
    b = make_sketch((0.9,))
    c = make_sketch((0.2, 3.0))
    left = a.copy().merge(b).merge(c)
    right = a.copy().merge(b.copy().merge(c))
    assert left == right
    assert left == merged([a, b, c], a.bounds)


def test_sketch_empty_merge_is_identity():
    a = make_sketch((0.05, 0.3, 0.9))
    empty = Histogram("empty", a.bounds)
    assert a.copy().merge(empty) == a
    assert empty.copy().merge(a) == a
    assert merged([], a.bounds).count == 0
    assert merged([], a.bounds).quantile(0.99) == 0.0


def test_sketch_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        make_sketch((0.3,)).merge(make_sketch((0.3,), bounds=(0.1, 1.0)))


def test_merged_quantile_within_one_bucket_of_exact():
    """The fleet-p99 fidelity bound: the quantile of the merged histogram
    is within the rank's bucket width of the exact quantile over the
    union of the underlying observations."""
    per_broker = [
        [0.01 * n for n in range(1, 20)],
        [0.05 * n for n in range(1, 15)],
        [0.002, 0.9, 1.4, 0.33, 0.07] * 4,
    ]
    bounds = (0.01, 0.05, 0.1, 0.5, 1.0, 2.0)
    fleet = merged([make_sketch(values, bounds) for values in per_broker], bounds)
    union = sorted(value for values in per_broker for value in values)
    for q in (0.5, 0.9, 0.99):
        exact = union[min(len(union) - 1, int(q * len(union)))]
        assert abs(fleet.quantile(q) - exact) <= fleet.bucket_width_at(q)


def test_sketch_copy_is_independent():
    original = make_sketch((0.3,))
    clone = original.copy()
    clone.merge(make_sketch((0.9,)))
    assert original.count == 1
    assert clone.count == 2
    assert original != clone
    assert original.wire_size() == clone.wire_size() == 16 + 4 * 4


# ------------------------------------------------------------ counter codec


def test_delta_encode_first_sample_is_full():
    current = {"a": 1.0, "b": 2.0}
    assert delta_encode(None, current) == current
    assert delta_encode(None, current) is not current  # defensive copy


def test_delta_encode_ships_only_changed_keys_absolute():
    previous = {"a": 1.0, "b": 2.0, "c": 3.0}
    current = {"a": 1.0, "b": 5.0, "c": 3.0, "d": 7.0}
    delta = delta_encode(previous, current)
    # Values are ABSOLUTE, not differences: applying a delta twice is a
    # no-op, which is what makes the full-snapshot resync sufficient.
    assert delta == {"b": 5.0, "d": 7.0}
    applied = dict(previous)
    applied.update(delta)
    applied.update(delta)
    assert applied == current


def test_merge_counter_totals_sums_per_source():
    totals = merge_counter_totals(
        [{"a": 1, "b": 2}, {"a": 10, "c": 5}, {}]
    )
    assert totals == {"a": 11, "b": 2, "c": 5}
    assert merge_counter_totals([]) == {}
