"""Checkpoint interval as a function of the bid price: ``F = phi(P)``.

The first level of the two-level optimization (Section 4.2.2) eliminates
the checkpoint-interval dimension: for a fixed bid the best interval for
a group depends only on that group's failure behaviour, so the paper
models ``F_i = phi_i(P_i)`` and optimizes over bids alone (Theorem 1).

``phi`` is computed in two stages:

1. **Young's first-order formula** (the paper's reference [10]):
   ``F* = sqrt(2 * O * MTTF(P))``, with the mean time to failure read off
   the failure model at the given bid.
2. **Numeric refinement**: a scan of candidate intervals that
   minimises the group's single-group expected cost (its spot bill plus
   the expected on-demand re-run it would cause).  This captures what
   Young's formula ignores — discrete failure-time grids, the cap of
   ``Ratio`` at 1, and recovery overhead.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from ..market.failure import FailureModel
from .cost_model import GroupOutcome
from .problem import CircleGroupSpec, OnDemandOption


def young_interval(
    checkpoint_overhead: float, mttf_hours: float, exec_time: float
) -> float:
    """Young's optimal checkpoint interval, clamped to ``(0, exec_time]``.

    ``F >= exec_time`` means "do not checkpoint"; that is the right answer
    when failures are rarer than the run length or when checkpoints are
    free to skip (no failures observed, ``mttf = inf``).
    """
    if exec_time <= 0:
        raise ConfigurationError(f"exec_time must be > 0, got {exec_time}")
    if checkpoint_overhead < 0 or mttf_hours < 0:
        raise ConfigurationError("overhead and mttf must be >= 0")
    if not math.isfinite(mttf_hours):
        return exec_time
    # Both inputs are validated non-negative above, so <= 0 is the same
    # predicate as the zero sentinel without an exact float equality.
    if checkpoint_overhead <= 0.0:
        # Free checkpoints: checkpoint as often as the model resolves.
        return min(exec_time, max(1e-6, mttf_hours / 100.0))
    if mttf_hours <= 0.0:
        return exec_time  # group never launches; interval is irrelevant
    return float(min(exec_time, math.sqrt(2.0 * checkpoint_overhead * mttf_hours)))


def _interval_candidates(
    spec: CircleGroupSpec, young: float, step_hours: float, max_candidates: int = 24
) -> np.ndarray:
    """Candidate intervals around Young's estimate plus even divisions.

    Includes ``T`` itself (no checkpoints) so refinement can always fall
    back to checkpoint-free execution.
    """
    T = spec.exec_time
    divisions = T / np.arange(1, max_candidates + 1)
    near_young = young * np.array([0.5, 0.75, 1.0, 1.5, 2.0])
    cands = np.concatenate([divisions, near_young, [T]])
    lo = min(step_hours, T)
    return np.unique(np.clip(cands, lo, T))


def optimal_interval(
    spec: CircleGroupSpec,
    bid: float,
    failure_model: FailureModel,
    ondemand: OnDemandOption,
    step_hours: float = 1.0,
) -> float:
    """``phi(P)`` for one group: the interval minimising its single-group
    expected cost at bid ``P``.

    The single-group objective is exactly the K=1 instance of the full
    cost model: ``S M E[X] + full_run_cost * E[Ratio]``.  For K > 1 the
    coupling through ``min_i Ratio_i`` makes the true optimum depend on
    the other groups; like the paper, we optimize per group (the
    independence of checkpointing across groups, Section 4.2.2).
    """
    young = young_interval(
        spec.checkpoint_overhead, failure_model.mttf_hours(bid), spec.exec_time
    )
    candidates = _interval_candidates(spec, young, step_hours)
    n = max(1, int(np.ceil(spec.exec_time / step_hours)))
    pmf = failure_model.failure_pmf(bid, n)
    price = failure_model.expected_price(bid)
    best_f, best_cost = young, math.inf
    for interval in candidates:
        outcome = GroupOutcome.from_pmf(
            spec, bid, float(interval), pmf, price, step_hours
        )
        cost = outcome.expected_spot_cost() + ondemand.full_run_cost * float(
            np.dot(outcome.pmf, outcome.ratios)
        )
        if cost < best_cost - 1e-12:
            best_cost, best_f = cost, float(interval)
    return best_f
