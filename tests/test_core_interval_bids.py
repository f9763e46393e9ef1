"""phi(P) checkpoint-interval and bid-candidate tests."""

import math

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.core.bid_search import log_bid_candidates, uniform_bid_candidates
from repro.core.interval import optimal_interval, young_interval
from repro.core.problem import OnDemandOption
from repro.errors import ConfigurationError
from repro.market.failure import FailureModel
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group


class TestYoung:
    def test_formula(self):
        assert young_interval(0.5, 50.0, 100.0) == pytest.approx(math.sqrt(50.0))

    def test_clamped_to_exec_time(self):
        assert young_interval(10.0, 1e6, 5.0) == 5.0

    def test_infinite_mttf_disables_checkpointing(self):
        assert young_interval(0.5, math.inf, 10.0) == 10.0

    def test_zero_mttf_disables_checkpointing(self):
        assert young_interval(0.5, 0.0, 10.0) == 10.0

    def test_zero_overhead_checkpoints_often(self):
        f = young_interval(0.0, 100.0, 10.0)
        assert 0 < f < 10.0

    def test_monotone_in_mttf(self):
        fs = [young_interval(0.5, m, 1000.0) for m in (1.0, 10.0, 100.0)]
        assert fs == sorted(fs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            young_interval(0.5, 10.0, 0.0)
        with pytest.raises(ConfigurationError):
            young_interval(-0.5, 10.0, 1.0)


class TestOptimalInterval:
    @pytest.fixture
    def risky_model(self):
        """A market where ~half the starts die within a few hours."""
        # alternating 2h cheap / 2h expensive
        times, prices = [], []
        for k in range(60):
            times += [4.0 * k, 4.0 * k + 2.0]
            prices += [0.05, 0.80]
        return FailureModel(SpotPriceTrace(times, prices, 240.0), step_hours=1.0)

    @pytest.fixture
    def ondemand(self):
        return OnDemandOption(get_instance_type("c3.xlarge"), 8, 8.0)

    def test_risky_market_wants_checkpoints(self, risky_model, ondemand):
        spec = make_group(exec_time=10.0, overhead=0.05)
        f = optimal_interval(spec, 0.1, risky_model, ondemand)
        assert f < 10.0  # checkpointing pays off

    def test_safe_bid_skips_checkpoints(self, risky_model, ondemand):
        spec = make_group(exec_time=10.0, overhead=0.05)
        f = optimal_interval(spec, 2.0, risky_model, ondemand)
        assert f == pytest.approx(10.0)  # bid above max price: no failures

    def test_refine_beats_or_matches_young(self, risky_model, ondemand):
        """Theorem 1 premise: phi minimises the single-group cost."""
        from repro.core.cost_model import GroupOutcome

        spec = make_group(exec_time=10.0, overhead=0.05)
        bid = 0.1
        pmf = risky_model.failure_pmf(bid, 10)
        price = risky_model.expected_price(bid)

        def group_cost(interval):
            o = GroupOutcome.from_pmf(spec, bid, interval, pmf, price, 1.0)
            return o.expected_spot_cost() + ondemand.full_run_cost * float(
                np.dot(o.pmf, o.ratios)
            )

        refined = optimal_interval(spec, bid, risky_model, ondemand)
        young = young_interval(
            spec.checkpoint_overhead, risky_model.mttf_hours(bid), spec.exec_time
        )
        assert group_cost(refined) <= group_cost(young) + 1e-9


class TestBidCandidates:
    def test_log_candidates_geometry(self):
        cands = log_bid_candidates(8.0, 3)
        assert np.allclose(cands, [1.0, 2.0, 4.0, 8.0])

    def test_count_is_levels_plus_one(self):
        assert log_bid_candidates(5.0, 7).size == 8

    def test_spacing_grows_with_bid(self):
        cands = log_bid_candidates(10.0, 6)
        gaps = np.diff(cands)
        assert np.all(np.diff(gaps) > 0)

    def test_ends_at_max(self):
        assert log_bid_candidates(3.3, 5)[-1] == pytest.approx(3.3)

    def test_floor_clipping_dedupes(self):
        cands = log_bid_candidates(8.0, 5, floor_price=3.0)
        assert cands[0] == 3.0
        assert np.unique(cands).size == cands.size

    def test_floor_above_max_rejected(self):
        with pytest.raises(ConfigurationError):
            log_bid_candidates(1.0, 3, floor_price=2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            log_bid_candidates(0.0, 3)
        with pytest.raises(ConfigurationError):
            log_bid_candidates(1.0, 0)

    def test_uniform_candidates(self):
        cands = uniform_bid_candidates(10.0, 5)
        assert np.allclose(cands, [2, 4, 6, 8, 10])

    def test_log_smaller_than_uniform(self):
        # The Section 4.2.2 point: log search needs far fewer points.
        assert log_bid_candidates(100.0, 7).size < uniform_bid_candidates(100.0, 100).size
