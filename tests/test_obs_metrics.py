"""Tests for the metrics registry: counters and histograms."""

import pytest

from repro.obs.metrics import Counter, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("x").value == 0

    def test_direct_attribute_increment(self):
        """Instruments bump .value directly."""
        c = Counter("x")
        c.value += 1
        assert c.value == 1


class TestHistogram:
    def test_needs_edges(self):
        with pytest.raises(ValueError):
            Histogram("empty", ())

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            Histogram("bad", (1, 3, 2))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Histogram("bad", (1, 2, 2, 3))

    def test_value_on_edge_lands_in_that_bucket(self):
        """Edges are inclusive upper bounds."""
        h = Histogram("h", (10, 20))
        h.observe(10)
        assert h.counts == [1, 0, 0]

    def test_value_just_above_edge_moves_up(self):
        h = Histogram("h", (10, 20))
        h.observe(11)
        assert h.counts == [0, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", (10, 20))
        h.observe(21)
        h.observe(10_000)
        assert h.counts == [0, 0, 2]

    def test_zero_and_negative_land_in_first_bucket(self):
        h = Histogram("h", (0, 10))
        h.observe(0)
        h.observe(-5)
        assert h.counts == [2, 0, 0]

    def test_count_sum_mean(self):
        h = Histogram("h", (10,))
        for v in (1, 2, 3):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 6
        assert h.sum / h.count == 2.0

    def test_counts_has_overflow_slot(self):
        assert len(Histogram("h", (1, 2, 3)).counts) == 4


class TestMetricsRegistry:
    def test_factories_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h", (1, 2)) is reg.histogram("h")

    def test_histogram_lookup_without_edges_requires_registration(self):
        with pytest.raises(KeyError):
            MetricsRegistry().histogram("missing")

    def test_counters_view(self):
        reg = MetricsRegistry()
        reg.counter("a").value += 2
        reg.counter("b")
        assert reg.counters() == {"a": 2, "b": 0}

    def test_as_dict_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").value += 3
        h = reg.histogram("h", (1, 10))
        h.observe(5)
        d = reg.as_dict()
        assert d["c"] == {"type": "counter", "value": 3}
        assert d["h"] == {"type": "histogram", "edges": [1, 10],
                          "counts": [0, 1, 0], "count": 1, "sum": 5}

    def test_as_dict_prefix(self):
        reg = MetricsRegistry()
        reg.counter("hits")
        assert set(reg.as_dict("nest.")) == {"nest.hits"}

