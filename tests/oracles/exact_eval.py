"""Per-call survival lookups: the parity oracle of the prepared marginals.

These are ``core.cost_model``'s ``_survival_at``, ``expected_min`` and
``expected_max`` as they were before each table row's marginal was
prepared once (:func:`repro.core.cost_model.prepare_marginal`): every
call re-sorts the row, rebuilds its tail sums and unions the raw values
into the grid.  ``_survival_at`` is also the planner's former
``two_level._survival_rows``, which built the quadrature grids.  The
parity tests demand that the prepared path match these bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _survival_at(
    values: np.ndarray, pmf: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """``P(Y >= g)`` for each grid point, for a discrete RV (values, pmf)."""
    order = np.argsort(values, kind="stable")
    vs = values[order]
    ps = pmf[order]
    tail = np.cumsum(ps[::-1])[::-1]  # tail[k] = P(Y >= vs[k])
    idx = np.searchsorted(vs, grid, side="left")
    out = np.zeros(grid.size)
    inside = idx < vs.size
    out[inside] = tail[idx[inside]]
    return out


def expected_min(
    values_list: Sequence[np.ndarray], pmf_list: Sequence[np.ndarray]
) -> float:
    """``E[min_i Y_i]`` for independent discrete non-negative RVs."""
    grid = np.unique(np.concatenate([np.asarray(v, float) for v in values_list]))
    grid = grid[grid > 0]
    if grid.size == 0:
        return 0.0
    surv = np.ones(grid.size)
    for values, pmf in zip(values_list, pmf_list):
        surv *= _survival_at(np.asarray(values, float), np.asarray(pmf, float), grid)
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, surv))


def expected_max(
    values_list: Sequence[np.ndarray], pmf_list: Sequence[np.ndarray]
) -> float:
    """``E[max_i Y_i]`` for independent discrete non-negative RVs."""
    grid = np.unique(np.concatenate([np.asarray(v, float) for v in values_list]))
    grid = grid[grid > 0]
    if grid.size == 0:
        return 0.0
    # P(max >= g) = 1 - prod_i (1 - P(Y_i >= g))
    prod_below = np.ones(grid.size)
    for values, pmf in zip(values_list, pmf_list):
        prod_below *= 1.0 - _survival_at(
            np.asarray(values, float), np.asarray(pmf, float), grid
        )
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, 1.0 - prod_below))
