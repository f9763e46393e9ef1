"""Correlated spot markets (extension).

The paper *assumes* spot prices in different availability zones move
independently (Section 3.1.2) and builds the replication math on that —
the joint failure probability is the product of the marginals.  This
module lets experiments stress that assumption: a region-wide "demand
surge" process hits every market simultaneously, and each market joins
a given surge with probability ``correlation``.

* ``correlation = 0`` — the canonical independent markets.
* ``correlation = 1`` — every surge hits every market: replicas die
  together and spatial redundancy buys nothing.

Surges are overlaid as price *floors* on the independently generated
traces, so the marginal behaviour of each market barely changes while
the joint behaviour sweeps from independent to comonotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..cloud.instance_types import PAPER_TYPES, get_instance_type
from ..cloud.zones import DEFAULT_ZONES, Zone
from ..errors import ConfigurationError
from ..sim.rng import derive_seed
from ..units import check_fraction, check_positive
from .generator import RegimeSwitchingGenerator
from .history import MarketKey, SpotPriceHistory
from .presets import market_params
from .trace import SpotPriceTrace

#: Scalar reference for every public function.  The surge sampler and
#: the overlay are checked against interleaved scalar re-derivations in
#: tests/test_batch_parity.py; the history builder is re-derived
#: market-by-market from the scalar generator plus serial overlays
#: under the same derived seeds.
KERNEL_ORACLES = {
    "sample_surges": "tests.test_batch_parity.TestCorrelatedParity.test_sample_surges_matches_scalar_reference",
    "overlay_price_floor": "tests.test_batch_parity.TestCorrelatedParity.test_overlay_floor_matches_scalar_reference",
    "build_correlated_history": "repro.market.generator.RegimeSwitchingGenerator.generate",
}


@dataclass(frozen=True)
class RegionSurge:
    """One region-wide demand surge."""

    start: float
    duration: float
    severity: float  # price floor as a multiple of each market's base price

    @property
    def end(self) -> float:
        return self.start + self.duration


def sample_surges(
    duration_hours: float,
    rng: np.random.Generator,
    rate_per_hour: float = 0.02,
    mean_duration: float = 3.0,
    severity_median: float = 8.0,
    severity_sigma: float = 0.5,
) -> list[RegionSurge]:
    """Poisson surge process over ``[0, duration_hours)``."""
    check_positive("duration_hours", duration_hours)
    n = int(rng.poisson(rate_per_hour * duration_hours))
    if n == 0:
        return []
    draws = np.empty((n, 3))
    for i in range(n):
        # The three draws stay scalar and interleaved: exponential and
        # standard_normal use the ziggurat and consume a variable number
        # of stream values, so batching each column would reorder the
        # RNG stream and change every seeded surge set.  Only the
        # arithmetic below is vectorised.
        draws[i, 0] = rng.uniform(0.0, duration_hours)
        draws[i, 1] = rng.exponential(mean_duration)
        draws[i, 2] = rng.standard_normal()
    starts = draws[:, 0]
    durs = np.minimum(np.maximum(0.25, draws[:, 1]), duration_hours - starts)
    sevs = severity_median * np.exp(severity_sigma * draws[:, 2])
    order = np.argsort(starts, kind="stable")
    return [
        RegionSurge(float(starts[i]), float(durs[i]), float(sevs[i]))
        for i in order
    ]


def overlay_price_floor(
    trace: SpotPriceTrace, start: float, end: float, floor: float
) -> SpotPriceTrace:
    """Raise the price to at least ``floor`` on ``[start, end)``.

    The overlay window is clipped to the trace's own window; an overlay
    entirely outside it is a no-op.
    """
    if end <= start:
        raise ConfigurationError(f"empty overlay window [{start}, {end})")
    lo = max(start, trace.start_time)
    hi = min(end, trace.end_time)
    if hi <= lo:
        return trace
    times = trace.times
    prices = trace.prices
    # Split segments at lo and hi, then raise everything inside.
    for cut in (lo, hi):
        if cut < trace.end_time and cut not in times:
            idx = int(np.searchsorted(times, cut, side="right") - 1)
            times = np.insert(times, idx + 1, cut)
            prices = np.insert(prices, idx + 1, prices[idx])
    inside = (times >= lo) & (times < hi)
    new_prices = np.where(inside, np.maximum(prices, floor), prices)
    # Re-compress equal adjacent segments introduced by the overlay.
    keep = np.empty(times.size, dtype=bool)
    keep[0] = True
    np.not_equal(new_prices[1:], new_prices[:-1], out=keep[1:])
    return SpotPriceTrace(times[keep], new_prices[keep], trace.end_time)


def build_correlated_history(
    duration_hours: float,
    seed: int,
    correlation: float,
    instance_types: Optional[Sequence[str]] = None,
    zones: Optional[Sequence[Zone]] = None,
    surge_rate_per_hour: float = 0.02,
    surge_mean_duration: float = 3.0,
) -> SpotPriceHistory:
    """Canonical presets plus region-wide surges shared across markets.

    Each market joins each surge independently with probability
    ``correlation``; during a joined surge its price is floored at
    ``severity x base_price``.
    """
    check_fraction("correlation", correlation)
    instance_types = list(instance_types or PAPER_TYPES)
    zones = list(zones or DEFAULT_ZONES)
    surges = sample_surges(
        duration_hours,
        np.random.default_rng(derive_seed(seed, "region-surges")),
        rate_per_hour=surge_rate_per_hour,
        mean_duration=surge_mean_duration,
    )
    history = SpotPriceHistory()
    for tname in instance_types:
        get_instance_type(tname)  # validate
        for zone in zones:
            key = MarketKey(tname, zone.name)
            params = market_params(tname, zone.name)
            rng = np.random.default_rng(derive_seed(seed, f"corr-market:{key}"))
            trace = RegimeSwitchingGenerator(params, rng).generate(duration_hours)
            join = np.random.default_rng(derive_seed(seed, f"corr-join:{key}"))
            for surge in surges:
                if join.random() < correlation:
                    trace = overlay_price_floor(
                        trace,
                        surge.start,
                        surge.end,
                        surge.severity * params.base_price,
                    )
            history.add(key, trace)
    return history
