"""Regime-switching synthetic spot-price generator.

The paper's model never consumes live AWS data — only a price *history*
(Section 2.1, Section 5.1 "Simulation").  This generator produces
histories with the statistical features the paper's observations call
out:

1. **Calm regimes** — the price hovers near a low base (a fraction of the
   on-demand price), changing rarely and by small amounts (region "A" in
   the paper's Figure 1).
2. **Spike regimes** — the price jumps far above on-demand (the paper
   observed <$0.1 to ~$10 on m1.medium) and stays there for a short,
   exponentially-distributed while (region "B").
3. **Spatial heterogeneity** — parameters differ per (type, zone); some
   markets never spike in a window (m1.medium/us-east-1b was flat).
4. **Short-horizon distribution stability** — regime parameters are
   constant within a generated window, so day-over-day histograms agree
   (the paper's Figure 2), while individual sample paths still differ.

The generator is a two-state semi-Markov chain sampled on a fixed
repricing grid.  Everything is driven by an explicit
:class:`numpy.random.Generator`, so traces are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import check_fraction, check_nonnegative, check_positive
from .trace import SpotPriceTrace

# Minimum spot price: AWS never published a $0 spot price; keeping a small
# floor also keeps expected-price estimates well defined.
PRICE_FLOOR = 0.001


@dataclass(frozen=True)
class SpotMarketParams:
    """Parameters of one simulated spot market (an instance type in a zone).

    Attributes
    ----------
    base_price:
        Centre of the calm-regime price, $/hour.  Typically 20-35% of the
        corresponding on-demand price, matching 2014-era EC2.
    calm_volatility:
        Relative standard deviation of calm-regime price *changes*.
    calm_change_rate:
        Expected number of calm-regime price changes per hour.  Low values
        produce the long flat stretches of Figure 1.
    spike_rate:
        Expected number of spike onsets per hour.  Zero produces a
        spike-free market (e.g. m1.medium in us-east-1b).
    spike_magnitude:
        Median multiple of ``base_price`` reached during a spike.
    spike_sigma:
        Log-normal shape of the spike magnitude (higher = heavier tail).
    spike_duration_mean:
        Mean spike length in hours.
    repricing_interval:
        Granularity of the repricing grid, hours (AWS updated prices every
        few minutes; 1/12 h = 5 min is the default).
    diurnal_amplitude:
        Strength of the deterministic daily demand cycle.  2014 spot
        markets showed strong business-hours price swells; the cycle
        multiplies the price by up to ``1 + diurnal_amplitude`` at the
        daily peak.  This is what makes the failure-rate function
        *learnable*: out-of-bid events recur at the same local time every
        day, so a model trained on recent history predicts them well
        (Section 5.4.1).
    diurnal_peak_hour:
        Local hour of the daily peak.
    """

    base_price: float
    calm_volatility: float = 0.05
    calm_change_rate: float = 0.5
    spike_rate: float = 0.02
    spike_magnitude: float = 10.0
    spike_sigma: float = 0.5
    spike_duration_mean: float = 0.5
    repricing_interval: float = 1.0 / 12.0
    diurnal_amplitude: float = 0.0
    diurnal_peak_hour: float = 14.0

    def __post_init__(self) -> None:
        check_positive("base_price", self.base_price)
        check_nonnegative("calm_volatility", self.calm_volatility)
        check_nonnegative("calm_change_rate", self.calm_change_rate)
        check_nonnegative("spike_rate", self.spike_rate)
        check_positive("spike_magnitude", self.spike_magnitude)
        check_nonnegative("spike_sigma", self.spike_sigma)
        check_positive("spike_duration_mean", self.spike_duration_mean)
        check_positive("repricing_interval", self.repricing_interval)
        check_nonnegative("diurnal_amplitude", self.diurnal_amplitude)
        check_nonnegative("diurnal_peak_hour", self.diurnal_peak_hour)


class RegimeSwitchingGenerator:
    """Generates :class:`SpotPriceTrace` objects from market parameters."""

    def __init__(self, params: SpotMarketParams, rng: np.random.Generator) -> None:
        self.params = params
        self.rng = rng

    def generate(self, duration_hours: float, start_time: float = 0.0) -> SpotPriceTrace:
        """Generate a trace covering ``[start_time, start_time + duration)``.

        The sample path is built on the repricing grid and then compressed
        to its change points, so the resulting trace is compact no matter
        the grid resolution.
        """
        check_positive("duration_hours", duration_hours)
        p = self.params
        n = max(1, int(np.ceil(duration_hours / p.repricing_interval)))
        grid_prices = self._sample_grid(n)

        grid_times = start_time + p.repricing_interval * np.arange(n)
        if p.diurnal_amplitude > 0.0:
            # Peaked daily bump: ~6 elevated hours around the peak hour.
            phase = 2.0 * np.pi * (grid_times - p.diurnal_peak_hour) / 24.0
            bump = np.maximum(0.0, np.cos(phase)) ** 4
            grid_prices = grid_prices * (1.0 + p.diurnal_amplitude * bump)
        # Compress runs of equal price into single segments.
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(grid_prices[1:], grid_prices[:-1], out=keep[1:])
        return SpotPriceTrace(
            grid_times[keep], grid_prices[keep], start_time + duration_hours
        )

    # ------------------------------------------------------------------
    def _sample_grid(self, n: int) -> np.ndarray:
        """Sample ``n`` grid prices from the two-regime chain.

        Event-level walk over the pre-drawn arrays: constant stretches
        (the vast majority of the grid — calm steps without a change,
        and spike plateaus) are filled by array assignment, and Python
        only touches the O(event-count) change points.  Byte-identical
        to the one-step-per-point scalar walk it replaced (kept as the
        parity oracle ``tests/oracles/market_generator.py``) under the
        same seed: the RNG draws are the same five arrays in the same
        order, and every price update applies the same float operations
        in the same order — only the per-step bookkeeping of untouched
        steps is replaced by slice fills.
        """
        p = self.params
        rng = self.rng
        dt = p.repricing_interval

        price = p.base_price * float(rng.uniform(0.9, 1.1))

        # Per-step event probabilities (grid is fine, so linearisation of
        # the exponential clock is accurate).
        p_spike = min(1.0, p.spike_rate * dt)
        p_change = min(1.0, p.calm_change_rate * dt)

        # Draw all randomness up front — one vectorised draw per array.
        # The draw order is the RNG-stream contract shared with the
        # reference implementation; never reorder it.
        u_spike = rng.random(n)
        u_change = rng.random(n)
        normals = rng.standard_normal(n)
        spike_mags = p.spike_magnitude * np.exp(
            p.spike_sigma * rng.standard_normal(n)
        )
        spike_durs = rng.exponential(p.spike_duration_mean, size=n)

        prices = np.empty(n)
        onsets = np.flatnonzero(u_spike < p_spike)
        change = u_change < p_change
        base = p.base_price
        cv = p.calm_volatility
        k = 0
        while k < n:
            pos = int(np.searchsorted(onsets, k))
            onset = int(onsets[pos]) if pos < onsets.size else n
            # Calm stretch [k, onset): the price moves only at flagged
            # change steps (onset is the first spike candidate >= k, so
            # every step in between is a calm step).
            seg = k
            for c in np.flatnonzero(change[k:onset]):
                c = int(c) + k
                if c > seg:
                    prices[seg:c] = max(PRICE_FLOOR, price)
                price = price * (1.0 + cv * normals[c])
                # Mean-revert gently so calm prices stay near base.
                price = 0.9 * price + 0.1 * base
                seg = c
            if onset > seg:
                prices[seg:onset] = max(PRICE_FLOOR, price)
            if onset >= n:
                break
            # Spike plateau starting at `onset`.  The reference decrements
            # spike_left step by step, so the plateau length is found by
            # the same sequential subtraction (a fused n_steps = ceil(...)
            # could round differently at the boundary).
            spike_price = base * max(1.5, spike_mags[onset])
            left = max(dt, spike_durs[onset])
            m = 1
            e = -1
            while onset + m < n:
                left -= dt
                if left <= 0.0:
                    e = onset + m
                    break
                m += 1
            if e < 0:
                prices[onset:n] = max(PRICE_FLOOR, spike_price)
                break
            prices[onset:e] = max(PRICE_FLOOR, spike_price)
            price = base * (1.0 + cv * normals[e])
            prices[e] = max(PRICE_FLOOR, price)
            k = e + 1
        return prices


def generate_market(
    params: SpotMarketParams,
    duration_hours: float,
    seed: int,
    start_time: float = 0.0,
) -> SpotPriceTrace:
    """One-shot convenience wrapper around :class:`RegimeSwitchingGenerator`."""
    gen = RegimeSwitchingGenerator(params, np.random.default_rng(seed))
    return gen.generate(duration_hours, start_time=start_time)
