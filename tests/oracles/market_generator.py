"""Scalar trace sampler: the parity oracle of the event-level sampler.

:meth:`repro.market.generator.RegimeSwitchingGenerator._sample_grid`
walks only the change points of the two-regime chain; the function here
is the original one-step-per-grid-point walk it replaced.  The parity
tests and the market benchmark compare the two byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.market.generator import PRICE_FLOOR, SpotMarketParams


def sample_grid_reference(
    params: SpotMarketParams, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Scalar reference for :meth:`RegimeSwitchingGenerator._sample_grid`.

    One Python step per grid point, exactly as originally written.  Kept
    as the bit-identity oracle for the event-level implementation: parity
    tests and the market benchmark compare the two byte-for-byte under a
    shared RNG state.
    """
    p = params
    dt = p.repricing_interval

    prices = np.empty(n)
    price = p.base_price * float(rng.uniform(0.9, 1.1))
    in_spike = False
    spike_left = 0.0
    spike_price = price

    p_spike = min(1.0, p.spike_rate * dt)
    p_change = min(1.0, p.calm_change_rate * dt)

    u_spike = rng.random(n)
    u_change = rng.random(n)
    normals = rng.standard_normal(n)
    spike_mags = p.spike_magnitude * np.exp(p.spike_sigma * rng.standard_normal(n))
    spike_durs = rng.exponential(p.spike_duration_mean, size=n)

    for k in range(n):
        if in_spike:
            spike_left -= dt
            if spike_left <= 0.0:
                in_spike = False
                price = p.base_price * (1.0 + p.calm_volatility * normals[k])
            else:
                price = spike_price
        else:
            if u_spike[k] < p_spike:
                in_spike = True
                spike_left = max(dt, spike_durs[k])
                spike_price = p.base_price * max(1.5, spike_mags[k])
                price = spike_price
            elif u_change[k] < p_change:
                price = price * (1.0 + p.calm_volatility * normals[k])
                # Mean-revert gently so calm prices stay near base.
                price = 0.9 * price + 0.1 * p.base_price
        prices[k] = max(PRICE_FLOOR, price)
    return prices
