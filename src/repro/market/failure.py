"""Failure-rate function and expected spot price (Section 4.4).

Given a spot-price history and a bid price ``P``, the paper defines

* ``f_i(P, t)`` — the probability that a circle group launched at a
  uniformly random point of the history is terminated by an out-of-bid
  event during productive-time step ``t`` (with ``t = T_i`` meaning the
  application completed first), and
* ``S_i(P)`` — the expected price actually paid, i.e. the mean of the
  historical prices not exceeding ``P``.

The paper estimates ``f`` by Monte-Carlo: pick ``G`` random starting
points and count first-exceedance times.  We compute the same quantity
*exactly* over **every** starting step via a vectorised
next-exceedance scan (the ``G -> infinity`` limit); the paper's sampled
estimator is the test oracle ``tests/oracles/failure_sampling.py``.

Discretisation follows the paper: failure times are floored to integer
multiples of ``step_hours`` (1 hour by default).  Within each step we use
the *maximum* observed price to decide termination — a spike shorter than
a step still kills the instance — and the mean price for payment.

The same small set of log-bid candidates is queried over and over by
:func:`repro.core.interval.optimal_interval`,
:meth:`repro.core.cost_model.GroupOutcome.build` and every baseline, so
the per-bid quantities (``steps_to_failure``, ``failure_pmf``,
``mttf_hours``, ``expected_price``) are memoised per instance.  Cached
arrays are returned read-only.  The memo is exact, so a fresh instance
(cold memo) and a long-lived one (warm memo) return identical values;
the determinism regression tests cross-validate the two.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ConfigurationError, TraceError
from ..units import check_positive
from .trace import SpotPriceTrace

# Resolution (relative to step_hours) of the intra-step sampling grid used
# to compute per-step max/mean prices.
_FINE_PER_STEP = 12


class FailureModel:
    """Out-of-bid failure statistics of one spot market.

    Parameters
    ----------
    trace:
        The price history to learn from.
    step_hours:
        Discretisation unit of failure times (the paper uses 1 hour).
    circular:
        Treat the history as circular so every step is a usable starting
        point.  With ``False``, starting points whose horizon would run
        past the end of the trace are censored at the boundary.

    The per-bid statistics are memoised on the instance.  The memo is
    exact — it stores the very arrays the first call computes — and lives
    with the instance, so it never needs invalidation: a new trace means
    a new model.
    """

    def __init__(
        self,
        trace: SpotPriceTrace,
        step_hours: float = 1.0,
        circular: bool = True,
    ) -> None:
        check_positive("step_hours", step_hours)
        self.trace = trace
        self.step_hours = float(step_hours)
        self.circular = bool(circular)
        self._stf_cache: dict[float, np.ndarray] = {}
        self._pmf_cache: dict[tuple[float, int], np.ndarray] = {}
        self._scalar_cache: dict[tuple[str, float], float] = {}

        n_steps = int(np.floor(trace.duration / step_hours))
        if n_steps < 1:
            raise TraceError(
                f"history ({trace.duration:.3g} h) shorter than one step "
                f"({step_hours:.3g} h)"
            )
        fine = trace.resample(step_hours / _FINE_PER_STEP)
        fine = fine[: n_steps * _FINE_PER_STEP]
        per_step = fine.reshape(n_steps, _FINE_PER_STEP)

        self.n_steps = n_steps
        self.step_max = per_step.max(axis=1)
        self.step_mean = per_step.mean(axis=1)
        self.step_start = per_step[:, 0]
        self._fine = fine

    # ------------------------------------------------------------------
    # Price statistics
    # ------------------------------------------------------------------
    def max_price(self) -> float:
        """Highest historical price — the paper's bid-space bound ``H``."""
        return float(self._fine.max())

    def min_price(self) -> float:
        return float(self._fine.min())

    def expected_price(self, bid: float) -> float:
        """``S(P)``: mean historical price over times when price <= bid.

        If the bid is below every observed price the group can never
        launch; we return ``bid`` itself as a conservative placeholder
        (callers should treat the group as unusable via
        :meth:`launch_probability`).
        """
        key = ("expected_price", float(bid))
        if key in self._scalar_cache:
            return self._scalar_cache[key]
        mask = self._fine <= bid
        value = float(self._fine[mask].mean()) if mask.any() else float(bid)
        self._scalar_cache[key] = value
        return value

    def launch_probability(self, bid: float) -> float:
        """Fraction of starting steps at which the instance launches."""
        return float(np.mean(self.step_start <= bid))

    # ------------------------------------------------------------------
    # First-exceedance machinery
    # ------------------------------------------------------------------
    def steps_to_failure(self, bid: float) -> np.ndarray:
        """For each starting step, productive steps until the first
        out-of-bid event, capped at ``n_steps`` (= censored / no failure
        observed).

        Entry ``k`` means: the price first exceeds ``bid`` during step
        ``start + k``; ``k == 0`` means the instance dies within its first
        step.  Entries for non-launchable starts (start price > bid) are
        set to ``-1``.

        The result is memoised per bid and read-only — the optimizer
        asks for the same handful of log-bid candidates thousands of
        times.
        """
        cbid = float(bid)
        cached = self._stf_cache.get(cbid)
        if cached is not None:
            return cached
        n = self.n_steps
        exceed = self.step_max > bid
        if self.circular:
            tiled = np.concatenate([exceed, exceed])
        else:
            tiled = exceed
        m = tiled.size
        idx = np.arange(m)
        pos = np.where(tiled, idx, m)
        # next_pos[i] = smallest j >= i with tiled[j] True (else m)
        next_pos = np.minimum.accumulate(pos[::-1])[::-1]
        dist = next_pos[:n] - np.arange(n)
        dist = np.minimum(dist, n)
        out = dist.astype(np.int64)
        out[self.step_start > bid] = -1
        out.setflags(write=False)
        self._stf_cache[cbid] = out
        return out

    def failure_pmf(self, bid: float, horizon_steps: int) -> np.ndarray:
        """The paper's ``f(P, t)`` as a vector of length ``horizon + 1``.

        ``pmf[t]`` for ``t < horizon`` is the probability the group is
        terminated during step ``t``; ``pmf[horizon]`` is the probability
        it survives the whole horizon, i.e. completes the application.
        Probabilities are conditional on the instance launching.  If the
        bid is below every start price the group never launches and the
        pmf is all mass at ``t = 0`` (instant failure), which makes such
        bids maximally unattractive to the optimizer without special
        cases.
        """
        if horizon_steps < 1:
            raise ConfigurationError(
                f"horizon_steps must be >= 1, got {horizon_steps}"
            )
        key = (float(bid), int(horizon_steps))
        cached = self._pmf_cache.get(key)
        if cached is not None:
            return cached
        dist = self.steps_to_failure(bid)
        launchable = dist >= 0
        pmf = np.zeros(horizon_steps + 1)
        if not launchable.any():
            pmf[0] = 1.0
        else:
            d = np.minimum(dist[launchable], horizon_steps)
            counts = np.bincount(d, minlength=horizon_steps + 1)
            pmf[:] = counts / counts.sum()
        pmf.setflags(write=False)
        self._pmf_cache[key] = pmf
        return pmf

    def mttf_hours(self, bid: float) -> float:
        """Mean time to an out-of-bid failure, in hours.

        Censored observations (no failure within the history) are counted
        at the full history length, making this a conservative (low)
        estimate.  Returns ``inf`` when no failure is ever observed and
        ``0`` when the group cannot launch.
        """
        key = ("mttf", float(bid))
        if key in self._scalar_cache:
            return self._scalar_cache[key]
        dist = self.steps_to_failure(bid)
        launchable = dist >= 0
        if not launchable.any():
            value = 0.0
        else:
            d = dist[launchable].astype(float)
            if np.all(d >= self.n_steps):
                value = float("inf")
            else:
                value = float(d.mean() * self.step_hours)
        self._scalar_cache[key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FailureModel(steps={self.n_steps}, step={self.step_hours}h, "
            f"price=[{self.min_price():.4g}, {self.max_price():.4g}]$)"
        )
