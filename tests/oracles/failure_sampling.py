"""The paper's Monte-Carlo failure-rate estimator, and the survival
curve of the exact one.

Paper §4.4 estimates ``f(P, t)`` from ``G`` random starting points of the
history; :meth:`repro.market.failure.FailureModel.failure_pmf` computes
the ``G -> infinity`` limit over every starting step.
:func:`failure_pmf_sampled` is that random-start sampler, kept so the
tests can cross-check the exact pmf against it, and :func:`survival_curve`
reads the exact pmf as ``P(t >= k)`` for its monotonicity checks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.market.failure import FailureModel


def failure_pmf_sampled(
    fm: FailureModel,
    bid: float,
    horizon_steps: int,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte-Carlo estimate of ``fm.failure_pmf(bid, horizon_steps)``
    from ``n_samples`` launchable starting steps drawn with replacement."""
    if n_samples < 1:
        raise ConfigurationError(f"n_samples must be >= 1, got {n_samples}")
    dist = fm.steps_to_failure(bid)
    launchable = np.flatnonzero(dist >= 0)
    pmf = np.zeros(horizon_steps + 1)
    if launchable.size == 0:
        pmf[0] = 1.0
        return pmf
    picks = rng.choice(launchable, size=n_samples, replace=True)
    d = np.minimum(dist[picks], horizon_steps)
    counts = np.bincount(d, minlength=horizon_steps + 1)
    return counts / counts.sum()


def survival_curve(fm: FailureModel, bid: float, horizon_steps: int) -> np.ndarray:
    """``S[k] = P(failure time >= k)`` for ``k = 0..horizon``."""
    pmf = fm.failure_pmf(bid, horizon_steps)
    # survival[k] = P(t >= k) = 1 - sum_{j<k} pmf[j]
    surv = np.empty(horizon_steps + 1)
    surv[0] = 1.0
    np.subtract(1.0, np.cumsum(pmf[:-1]), out=surv[1:])
    return np.clip(surv, 0.0, 1.0)
