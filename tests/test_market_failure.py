"""Failure-rate model tests (Section 4.4 machinery)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, TraceError
from repro.market.failure import FailureModel
from repro.market.trace import SpotPriceTrace
from tests.oracles.failure_sampling import failure_pmf_sampled, survival_curve


@pytest.fixture
def fm(step_trace) -> FailureModel:
    # step_trace: 0.10 on [0,5), 0.50 on [5,8), 0.05 on [8,20), 2.0 on [20,24)
    return FailureModel(step_trace, step_hours=1.0)


class TestBasics:
    def test_step_count(self, fm):
        assert fm.n_steps == 24

    def test_max_min_price(self, fm):
        assert fm.max_price() == 2.0
        assert fm.min_price() == 0.05

    def test_too_short_history(self):
        tiny = SpotPriceTrace([0.0], [0.1], 0.5)
        with pytest.raises(TraceError):
            FailureModel(tiny, step_hours=1.0)


class TestExpectedPrice:
    def test_mean_of_prices_below_bid(self, fm):
        # bid 0.2 admits prices 0.10 (5h) and 0.05 (12h)
        expected = (5 * 0.10 + 12 * 0.05) / 17
        assert fm.expected_price(0.2) == pytest.approx(expected, rel=1e-6)

    def test_bid_above_everything(self, fm, step_trace):
        assert fm.expected_price(10.0) == pytest.approx(step_trace.mean_price(), rel=1e-6)

    def test_bid_below_everything_returns_bid(self, fm):
        assert fm.expected_price(0.01) == 0.01

    def test_monotone_in_bid(self, fm):
        bids = [0.06, 0.2, 0.6, 3.0]
        prices = [fm.expected_price(b) for b in bids]
        assert prices == sorted(prices)


class TestLaunchProbability:
    def test_bid_covers_everything(self, fm):
        assert fm.launch_probability(2.0) == 1.0

    def test_bid_below_everything(self, fm):
        assert fm.launch_probability(0.01) == 0.0

    def test_partial(self, fm):
        # start-of-step price <= 0.10 in 17 of 24 steps
        assert fm.launch_probability(0.10) == pytest.approx(17 / 24)


class TestStepsToFailure:
    def test_non_launchable_marked(self, fm):
        dist = fm.steps_to_failure(0.10)
        # steps 5..7 start at 0.50, steps 20..23 at 2.0 -> -1
        assert set(np.flatnonzero(dist == -1)) == {5, 6, 7, 20, 21, 22, 23}

    def test_first_exceedance_distance(self, fm):
        dist = fm.steps_to_failure(0.10)
        # from step 0, the price first exceeds 0.10 at step 5 -> 5 steps
        assert dist[0] == 5
        assert dist[4] == 1
        # from step 8 (price 0.05), exceedance at step 20 -> 12 steps
        assert dist[8] == 12

    def test_circular_wraparound(self, fm):
        dist = fm.steps_to_failure(0.10)
        # Dying at step 5 when starting at step 4 wraps nothing, but a
        # start late in the trace must see the *wrapped* spike at step 5.
        # Step 19 (price 0.05): next exceedance step 20 -> 1.
        assert dist[19] == 1

    def test_unbounded_bid_never_fails(self, fm):
        dist = fm.steps_to_failure(99.0)
        assert np.all(dist == fm.n_steps)


class TestFailurePmf:
    def test_sums_to_one(self, fm):
        for bid in (0.06, 0.10, 0.5, 2.0):
            pmf = fm.failure_pmf(bid, 10)
            assert pmf.sum() == pytest.approx(1.0)
            assert np.all(pmf >= 0)

    def test_high_bid_always_completes(self, fm):
        pmf = fm.failure_pmf(99.0, 10)
        assert pmf[-1] == 1.0

    def test_unlaunchable_bid_fails_instantly(self, fm):
        pmf = fm.failure_pmf(0.001, 10)
        assert pmf[0] == 1.0

    def test_horizon_validation(self, fm):
        with pytest.raises(ConfigurationError):
            fm.failure_pmf(0.1, 0)

    def test_bid_at_historical_max_completes(self, fm):
        # Completion probability is NOT monotone in the bid (a higher bid
        # adds launchable-but-doomed starting points to the conditional),
        # but bidding the historical maximum always completes.
        assert fm.failure_pmf(fm.max_price(), 12)[-1] == 1.0
        assert fm.failure_pmf(0.06, 12)[-1] > 0.0

    def test_exact_value_on_known_trace(self, fm):
        # bid 0.10, horizon 6: launchable starts are 0..4 and 8..19.
        # dist values: [5,4,3,2,1] and [12,11,10,9,8,7,6,5,4,3,2,1].
        pmf = fm.failure_pmf(0.10, 6)
        # t < 6 failures: from dist: 1(x2),2(x2),3(x2),4(x2),5(x2) = each 2/17
        assert pmf[1] == pytest.approx(2 / 17)
        assert pmf[5] == pytest.approx(2 / 17)
        assert pmf[0] == 0.0
        # survive >= 6 steps: dist in {12,11,10,9,8,7,6} -> 7/17
        assert pmf[6] == pytest.approx(7 / 17)


class TestSurvivalAndMttf:
    def test_survival_starts_at_one_and_decreases(self, fm):
        surv = survival_curve(fm, 0.10, 12)
        assert surv[0] == 1.0
        assert np.all(np.diff(surv) <= 1e-12)

    def test_survival_matches_pmf_tail(self, fm):
        pmf = fm.failure_pmf(0.10, 12)
        surv = survival_curve(fm, 0.10, 12)
        assert surv[-1] == pytest.approx(pmf[-1])

    def test_mttf_infinite_when_never_failing(self, fm):
        assert fm.mttf_hours(99.0) == np.inf

    def test_mttf_zero_when_never_launching(self, fm):
        assert fm.mttf_hours(0.001) == 0.0

    def test_mttf_increases_with_bid(self, fm):
        assert fm.mttf_hours(0.6) >= fm.mttf_hours(0.10)


class TestSampledPmf:
    def test_sampled_approximates_exact(self, fm):
        rng = np.random.default_rng(0)
        exact = fm.failure_pmf(0.10, 12)
        sampled = failure_pmf_sampled(fm, 0.10, 12, 200_000, rng)
        assert np.abs(exact - sampled).max() < 0.01

    def test_sampled_validates_n(self, fm):
        with pytest.raises(ConfigurationError):
            failure_pmf_sampled(fm, 0.1, 5, 0, np.random.default_rng(0))


class TestSubhourSpikes:
    def test_short_spike_still_kills(self):
        """A 10-minute spike inside an hour step must count as a failure."""
        trace = SpotPriceTrace(
            times=[0.0, 2.5, 2.6],
            prices=[0.10, 5.0, 0.10],
            end_time=48.0,
        )
        fm = FailureModel(trace, step_hours=1.0)
        dist = fm.steps_to_failure(0.2)
        assert dist[0] == 2  # dies in step 2 despite hourly start price 0.10
