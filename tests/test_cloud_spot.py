"""Spot-market primitive tests against the known step trace."""

import pytest

from repro.cloud.spot import (
    first_at_or_below,
    first_exceedance,
    integrate_price,
)
from repro.errors import TraceError

# step_trace: 0.10 on [0,5), 0.50 on [5,8), 0.05 on [8,20), 2.0 on [20,24)


class TestFirstExceedance:
    def test_immediately_above(self, step_trace):
        assert first_exceedance(step_trace, 0.3, 6.0) == 6.0

    def test_future_segment(self, step_trace):
        assert first_exceedance(step_trace, 0.3, 0.0) == 5.0
        assert first_exceedance(step_trace, 0.3, 9.0) == 20.0

    def test_never(self, step_trace):
        assert first_exceedance(step_trace, 5.0, 0.0) is None

    def test_bid_exactly_at_price_not_exceeded(self, step_trace):
        # price == bid keeps the instance alive (out-of-bid is strict >)
        assert first_exceedance(step_trace, 0.5, 5.0) == 20.0

    def test_out_of_window(self, step_trace):
        with pytest.raises(TraceError):
            first_exceedance(step_trace, 0.3, 24.0)


class TestFirstAtOrBelow:
    def test_immediate(self, step_trace):
        assert first_at_or_below(step_trace, 0.2, 1.0) == 1.0

    def test_waits_for_price_drop(self, step_trace):
        assert first_at_or_below(step_trace, 0.2, 6.0) == 8.0

    def test_never(self, step_trace):
        assert first_at_or_below(step_trace, 0.01, 0.0) is None

    def test_boundary_equality_launches(self, step_trace):
        assert first_at_or_below(step_trace, 0.5, 5.5) == 5.5


class TestIntegratePrice:
    def test_within_one_segment(self, step_trace):
        assert integrate_price(step_trace, 1.0, 3.0) == pytest.approx(0.2)

    def test_across_segments(self, step_trace):
        # [4,9): 1h @0.10 + 3h @0.50 + 1h @0.05
        assert integrate_price(step_trace, 4.0, 9.0) == pytest.approx(1.65)

    def test_empty_interval(self, step_trace):
        assert integrate_price(step_trace, 5.0, 5.0) == 0.0

    def test_reversed_bounds(self, step_trace):
        with pytest.raises(TraceError):
            integrate_price(step_trace, 9.0, 4.0)
