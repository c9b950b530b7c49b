"""Tests for the analysis helpers (stats, tables, plots)."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.plots import (render_bars, render_core_trace,
                                  render_distribution)
from repro.analysis.stats import SPEEDUP_BANDS, band_counts, classify_speedup
from repro.analysis.tables import pct, render_band_table, render_table
from repro.sim.trace import Segment


class TestStats:
    @pytest.mark.parametrize("value,band", [
        (-0.5, "slower by > 20%"),
        (-0.1, "slower by (5,20]%"),
        (0.0, "same"),
        (0.04, "same"),
        (0.1, "faster by (5,20]%"),
        (0.5, "faster by > 20%"),
    ])
    def test_classify_speedup(self, value, band):
        assert classify_speedup(value) == band

    def test_band_counts_total(self):
        counts = band_counts([-0.3, 0.0, 0.0, 0.1, 0.5])
        assert sum(counts.values()) == 5
        assert counts["same"] == 2

    @given(st.floats(-0.99, 5.0))
    def test_every_speedup_lands_in_exactly_one_band(self, s):
        assert classify_speedup(s) in SPEEDUP_BANDS


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["1", "2"]])

    def test_pct(self):
        assert pct(0.123) == "+12.3%"
        assert pct(-0.05) == "-5.0%"

    def test_band_table(self):
        out = render_band_table("t", {"nest": {"same": 3,
                                               "faster by > 20%": 1}})
        assert "nest" in out and "same" in out


class TestPlots:
    def test_render_bars(self):
        out = render_bars("title", ["a", "b"], [0.5, -0.25])
        assert "title" in out
        assert "+" in out and "-" in out

    def test_render_bars_mismatch(self):
        with pytest.raises(ValueError):
            render_bars("t", ["a"], [1.0, 2.0])

    def test_render_distribution(self):
        out = render_distribution("freq", ["lo", "hi"], [0.25, 0.75])
        assert "hi=75%" in out

    def test_render_core_trace(self):
        segs = [Segment(0, 0, 50_000, 3700, 1),
                Segment(1, 10_000, 20_000, 1000, 2)]
        out = render_core_trace(segs, 0, 100_000, [1000, 2100, 3700])
        assert "core   0" in out and "core   1" in out

    def test_render_core_trace_empty(self):
        out = render_core_trace([], 0, 1000, [1000])
        assert "no activity" in out

    def test_render_core_trace_filters_spin(self):
        segs = [Segment(0, 0, 1000, 3700, -1, spinning=True)]
        assert "no activity" in render_core_trace(segs, 0, 1000, [1000])

    def test_render_core_trace_rejects_empty_window(self):
        with pytest.raises(ValueError):
            render_core_trace([], 5, 5, [1000])
