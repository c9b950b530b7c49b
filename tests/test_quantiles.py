"""Shared nearest-rank quantile math (metrics/quantiles.py).

The dedupe contract: the schbench-style sample percentile and the
histogram bucket quantile route through the same ``nearest_rank``, so
whenever a histogram's edges can represent a sample exactly, both paths
name the same observation.  Pinned here property-style (hypothesis)
rather than by examples alone.
"""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.latency import LatencyRecorder
from repro.metrics.latency import percentile as latency_percentile
from repro.metrics.quantiles import (histogram_quantile, nearest_rank,
                                     percentile)
from repro.obs.metrics import Histogram

EDGES = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

samples_on_edges = st.lists(st.sampled_from(EDGES), min_size=1,
                            max_size=200)
percentiles = st.floats(min_value=0, max_value=100,
                        allow_nan=False)


def to_counts(values):
    counts = [0] * (len(EDGES) + 1)
    for v in values:
        for i, edge in enumerate(EDGES):
            if v <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    return counts


class TestNearestRank:
    def test_bounds_and_errors(self):
        assert nearest_rank(10, 0) == 1
        assert nearest_rank(10, 100) == 10
        assert nearest_rank(1, 50) == 1
        with pytest.raises(ValueError):
            nearest_rank(0, 50)
        with pytest.raises(ValueError):
            nearest_rank(5, 101)

    @given(n=st.integers(1, 500), p=percentiles)
    def test_rank_always_a_valid_index(self, n, p):
        assert 1 <= nearest_rank(n, p) <= n

    @given(n=st.integers(1, 100), p=percentiles, q=percentiles)
    def test_rank_monotone_in_percentile(self, n, p, q):
        lo, hi = sorted((p, q))
        assert nearest_rank(n, lo) <= nearest_rank(n, hi)


class TestPercentile:
    def test_classic_examples(self):
        assert percentile([15, 20, 35, 40, 50], 30) == 20
        assert percentile([15, 20, 35, 40, 50], 100) == 50
        assert percentile([7], 99) == 7
        with pytest.raises(ValueError):
            percentile([], 50)

    @given(values=st.lists(st.integers(0, 10_000), min_size=1), p=percentiles)
    def test_result_is_an_observation_within_range(self, values, p):
        got = percentile(values, p)
        assert got in values
        assert min(values) <= got <= max(values)

    def test_latency_module_reexports_the_shared_helper(self):
        assert latency_percentile is percentile
        rec = LatencyRecorder()
        for v in (1, 2, 3, 4, 100):
            rec.record(v)
        assert rec.p99() == 100


class TestHistogramQuantile:
    def test_empty_and_overflow(self):
        assert histogram_quantile(EDGES, [0] * (len(EDGES) + 1), 50) is None
        counts = [0] * (len(EDGES) + 1)
        counts[-1] = 3   # everything overflowed: no finite bound exists
        assert histogram_quantile(EDGES, counts, 50) is None

    @given(values=samples_on_edges, p=percentiles)
    def test_agrees_with_sample_percentile_on_representable_data(
            self, values, p):
        # Samples drawn from the edge set are represented exactly, so
        # the histogram's bucket bound IS the sample's percentile.
        assert histogram_quantile(EDGES, to_counts(values), p) == \
            percentile(values, p)

    @given(values=st.lists(st.integers(0, 999), min_size=1), p=percentiles)
    def test_bucket_bound_never_below_the_sample_percentile(self, values, p):
        # For arbitrary in-range samples the upper edge is a bound.
        assert histogram_quantile(EDGES, to_counts(values), p) >= \
            percentile(values, p)

    @given(values=samples_on_edges, p=percentiles)
    def test_matches_the_obs_histogram_method(self, values, p):
        # The obs Histogram's buckets feed histogram_quantile in
        # derived_metrics: observed on-edge samples give back the
        # sample percentile.
        hist = Histogram("h", EDGES)
        for v in values:
            hist.observe(v)
        assert histogram_quantile(hist.edges, hist.counts, p) == \
            percentile(values, p)
