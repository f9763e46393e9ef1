"""One-shot subset scoring: the parity oracle of the score kernels.

This is the expression ``TwoLevelOptimizer._scored_batches`` evaluated
before the tiled and then the prefix-extension kernels of
:mod:`repro.core.grid_eval` replaced it: two ``(C, grid)`` product
arrays started from ``np.ones``, one fresh fancy-indexed gather per
group, and one row sum each at the end.  It allocates several
``(C, grid)`` arrays per call, which is why production no longer runs
it; the parity tests demand that the kernels match it bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.two_level import _RATIO_GRID, _WALL_GRID


def prefix_products(tables, batch):
    """``(prod_r, prod_w)``: per combo row of ``batch``, the products of
    ``surv_ratio`` and of ``1 - surv_wall`` over ``tables``."""
    surv_r = np.ones((batch.shape[0], _RATIO_GRID))
    prod_below_w = np.ones((batch.shape[0], _WALL_GRID))
    for g, table in enumerate(tables):
        rows = batch[:, g]
        surv_r *= table.surv_ratio[rows]
        prod_below_w *= 1.0 - table.surv_wall[rows]
    return surv_r, prod_below_w


def subset_score_sums(tables, batch):
    """``(sum_r, sum_w)`` per combo row of ``batch`` over ``tables``."""
    surv_r, prod_below_w = prefix_products(tables, batch)
    return surv_r.sum(axis=1), (1.0 - prod_below_w).sum(axis=1)
