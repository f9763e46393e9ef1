"""Spot-market primitives against a price trace.

Semantics follow the 2014 spot market (Section 2.1):

* A request with bid ``P`` *launches* at the first moment the spot price
  is <= ``P`` (it waits while the price is above the bid).
* A running instance is *terminated by the provider* at the first moment
  the price rises above ``P`` (an "out-of-bid event").
* While running, the user pays the *spot price* (not the bid), integrated
  over the running window.

The functions here are exact on the piecewise-constant trace — no grid
sampling.  They are the scalar references of the replay kernels in
:mod:`repro.execution.kernels`, and the ledger audit re-bills with
:func:`billed_spot_cost`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import TraceError
from ..market.trace import SpotPriceTrace


def _segment_bounds(trace: SpotPriceTrace, t0: float) -> int:
    """Index of the segment containing ``t0`` (validates the bound)."""
    if not trace.start_time <= t0 < trace.end_time:
        raise TraceError(
            f"t0={t0} outside trace window [{trace.start_time}, {trace.end_time})"
        )
    return int(np.searchsorted(trace.times, t0, side="right") - 1)


def first_exceedance(
    trace: SpotPriceTrace, bid: float, t0: float
) -> Optional[float]:
    """First time >= ``t0`` at which the spot price exceeds ``bid``.

    Returns ``None`` if the price never exceeds the bid before the trace
    window ends.
    """
    k = _segment_bounds(trace, t0)
    if trace.prices[k] > bid:
        return t0
    above = np.flatnonzero(trace.prices[k + 1 :] > bid)
    if above.size == 0:
        return None
    return float(trace.times[k + 1 + above[0]])


def first_at_or_below(
    trace: SpotPriceTrace, bid: float, t0: float
) -> Optional[float]:
    """First time >= ``t0`` at which the spot price is <= ``bid``.

    This is the launch time of a spot request submitted at ``t0``.
    Returns ``None`` if the price stays above the bid for the rest of the
    window.
    """
    k = _segment_bounds(trace, t0)
    if trace.prices[k] <= bid:
        return t0
    below = np.flatnonzero(trace.prices[k + 1 :] <= bid)
    if below.size == 0:
        return None
    return float(trace.times[k + 1 + below[0]])


def integrate_price(trace: SpotPriceTrace, t0: float, t1: float) -> float:
    """``\\int_{t0}^{t1} price(t) dt`` in dollar-hours per instance."""
    if t1 < t0:
        raise TraceError(f"integration bounds reversed: [{t0}, {t1}]")
    if t0 == t1:
        return 0.0
    window = trace.slice(t0, t1)
    return float(np.dot(window.prices, window.segment_durations()))


def billed_spot_cost(
    trace: SpotPriceTrace,
    launch: float,
    end: float,
    interrupted: bool,
    policy,
) -> float:
    """Dollars one spot instance owes for running ``[launch, end)``.

    With a continuous policy this is the price integral.  With hourly
    granularity it follows 2014 EC2 spot billing: the price is *locked at
    each instance-hour boundary* (you pay the rate in effect when the
    hour began for the whole hour), and the final partial hour is free
    when the **provider** interrupted the instance (out-of-bid event) but
    billed in full when the user stopped it.
    """
    if end < launch:
        raise TraceError(f"billing bounds reversed: [{launch}, {end}]")
    g = getattr(policy, "granularity_hours", 0.0)
    if not g:  # granularity 0 = continuous billing (BillingPolicy.is_continuous)
        return integrate_price(trace, launch, end)
    duration = end - launch
    n_full = int(np.floor(duration / g + 1e-12))
    cost = 0.0
    for k in range(n_full):
        cost += trace.price_at(min(launch + k * g, np.nextafter(trace.end_time, -np.inf))) * g
    partial = duration - n_full * g
    if partial > 1e-12:
        free = interrupted and getattr(policy, "refund_interrupted_hour", False)
        if not free:
            boundary = min(
                launch + n_full * g, np.nextafter(trace.end_time, -np.inf)
            )
            cost += trace.price_at(boundary) * g
    return cost
