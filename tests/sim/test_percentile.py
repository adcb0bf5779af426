"""The shared nearest-rank percentile helper (repro.sim.metrics)."""

import pytest

from repro.sim import percentile


class TestSharedPercentile:
    def test_p0_is_minimum(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.0) == 1.0

    def test_p50_is_nearest_rank_median(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p100_is_maximum(self):
        assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 1.0) == 5.0

    def test_intermediate_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 0.99) == 4.0
        # Just below a rank boundary stays on the lower rank.
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0.2) == 10.0
        assert percentile(values, 0.2000001) == 20.0

    def test_single_element_for_every_q(self):
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert percentile([7.0], q) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    def test_q_out_of_range_raises(self):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 1.1)
