"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.billing import CONTINUOUS, HOURLY
from repro.core.ckpt_math import (
    progress_after_wall,
    total_wall,
    wall_for_productive,
)
from repro.core.cost_model import expected_max, expected_min
from repro.core.ratio import ratio, ratio_array
from repro.market.failure import FailureModel
from repro.market.trace import SpotPriceTrace
from tests.oracles.failure_sampling import survival_curve

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
prices = st.floats(min_value=0.001, max_value=50.0, allow_nan=False)


@st.composite
def traces(draw, min_segments=1, max_segments=12):
    n = draw(st.integers(min_segments, max_segments))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=20.0), min_size=n, max_size=n
        )
    )
    times = np.concatenate([[0.0], np.cumsum(gaps[:-1])]) if n > 1 else np.array([0.0])
    ps = draw(st.lists(prices, min_size=n, max_size=n))
    end = float(times[-1]) + draw(st.floats(min_value=0.5, max_value=30.0))
    return SpotPriceTrace(times, ps, end)


@st.composite
def discrete_rvs(draw, max_support=6):
    n = draw(st.integers(1, max_support))
    values = np.sort(
        np.array(
            draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=10.0),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    weights = np.array(
        draw(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n))
    )
    return values, weights / weights.sum()


# ----------------------------------------------------------------------
# Trace algebra
# ----------------------------------------------------------------------
@given(traces())
def test_trace_mean_between_min_and_max(trace):
    eps = 1e-9 * max(1.0, trace.max_price())
    assert trace.min_price() - eps <= trace.mean_price() <= trace.max_price() + eps


@given(traces(), st.floats(min_value=-100, max_value=100))
def test_shift_preserves_statistics(trace, dt):
    moved = trace.shift(dt)
    assert np.isclose(moved.mean_price(), trace.mean_price())
    assert np.isclose(moved.duration, trace.duration)


@given(traces(min_segments=2))
def test_slice_window_is_subset_of_price_range(trace):
    mid = (trace.start_time + trace.end_time) / 2
    window = trace.slice(trace.start_time, mid)
    assert window.min_price() >= trace.min_price() - 1e-12
    assert window.max_price() <= trace.max_price() + 1e-12


@given(traces(), traces())
def test_concat_duration_adds(a, b):
    joined = a.concat(b)
    assert np.isclose(joined.duration, a.duration + b.duration)


@given(traces(), st.floats(min_value=0.0, max_value=1.0))
def test_quantile_within_price_range(trace, q):
    v = trace.quantile(q)
    assert trace.min_price() <= v <= trace.max_price()


@given(traces(), prices)
def test_fraction_below_is_probability(trace, p):
    f = trace.fraction_below(p)
    assert 0.0 <= f <= 1.0


# ----------------------------------------------------------------------
# Ratio and checkpoint math
# ----------------------------------------------------------------------
interval_exec = st.tuples(
    st.floats(min_value=0.5, max_value=50.0),  # exec_time
    st.floats(min_value=0.1, max_value=60.0),  # interval
    st.floats(min_value=0.0, max_value=5.0),  # recovery/overhead
)


@given(interval_exec, st.floats(min_value=0.0, max_value=1.0))
def test_ratio_bounds(params, frac):
    T, F, R = params
    t = frac * T
    r = ratio(t, T, F, R)
    assert 0.0 <= r <= 1.0


@given(interval_exec)
def test_ratio_array_monotone_nonincreasing(params):
    T, F, R = params
    ts = np.linspace(0.0, T, 64)
    vec = ratio_array(ts, T, F, R)
    assert np.all(np.diff(vec) <= 1e-9)


@given(interval_exec, st.floats(min_value=0.0, max_value=1.0))
def test_wall_roundtrip(params, frac):
    T, F, O = params
    p = frac * T
    w = wall_for_productive(p, T, F, O)
    productive, saved, _n = progress_after_wall(w, T, F, O)
    assert productive >= p - 1e-6
    assert saved <= productive + 1e-9


@given(interval_exec, st.floats(min_value=0.0, max_value=100.0))
def test_progress_capped_at_exec_time(params, wall):
    T, F, O = params
    productive, saved, n = progress_after_wall(wall, T, F, O)
    assert 0.0 <= saved <= productive <= T
    assert n >= 0


@given(interval_exec)
def test_total_wall_at_least_exec_time(params):
    T, F, O = params
    assert total_wall(T, F, O) >= T - 1e-12


# ----------------------------------------------------------------------
# Extreme-value helpers
# ----------------------------------------------------------------------
@given(st.lists(discrete_rvs(), min_size=1, max_size=3))
def test_extremes_vs_monte_carlo(rvs):
    values = [v for v, _ in rvs]
    pmfs = [p for _, p in rvs]
    e_min = expected_min(values, pmfs)
    e_max = expected_max(values, pmfs)
    assert e_min <= e_max + 1e-9
    rng = np.random.default_rng(0)
    samples = np.stack(
        [rng.choice(v, size=4000, p=p) for v, p in zip(values, pmfs)]
    )
    mc_min = samples.min(axis=0).mean()
    mc_max = samples.max(axis=0).mean()
    assert abs(e_min - mc_min) < 0.35
    assert abs(e_max - mc_max) < 0.35


@given(discrete_rvs())
def test_single_rv_extremes_equal_mean(rv):
    v, p = rv
    mean = float(np.dot(v, p))
    assert np.isclose(expected_min([v], [p]), mean)
    assert np.isclose(expected_max([v], [p]), mean)


# ----------------------------------------------------------------------
# Failure model
# ----------------------------------------------------------------------
@settings(max_examples=40)
@given(traces(min_segments=2), prices, st.integers(1, 20))
def test_failure_pmf_is_distribution(trace, bid, horizon):
    if trace.duration < 1.0:
        return
    fm = FailureModel(trace, step_hours=1.0)
    pmf = fm.failure_pmf(bid, horizon)
    assert np.isclose(pmf.sum(), 1.0)
    assert np.all(pmf >= -1e-12)


@settings(max_examples=40)
@given(traces(min_segments=2), prices)
def test_survival_is_monotone(trace, bid):
    if trace.duration < 1.0:
        return
    fm = FailureModel(trace, step_hours=1.0)
    surv = survival_curve(fm, bid, 10)
    assert surv[0] == 1.0
    assert np.all(np.diff(surv) <= 1e-9)


@settings(max_examples=40)
@given(traces(min_segments=2))
def test_expected_price_monotone_in_bid(trace):
    if trace.duration < 1.0:
        return
    fm = FailureModel(trace, step_hours=1.0)
    bids = np.linspace(fm.min_price(), fm.max_price(), 6)
    values = [fm.expected_price(b) for b in bids]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# Billing
# ----------------------------------------------------------------------
@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_hourly_never_cheaper_than_continuous(duration, price):
    assert HOURLY.cost(price, duration) >= CONTINUOUS.cost(price, duration) - 1e-12


@given(st.floats(min_value=0.0, max_value=100.0))
def test_refund_never_increases_bill(duration):
    assert HOURLY.billable_hours(duration, interrupted=True) <= HOURLY.billable_hours(
        duration, interrupted=False
    )
