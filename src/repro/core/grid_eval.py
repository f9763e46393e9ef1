"""One-shot candidate-grid kernels for the planner (DESIGN.md §10).

The cold planning path used to spend most of its time in scalar Python
loops over candidate grids: :func:`repro.core.interval.optimal_interval`
builds one :class:`~repro.core.cost_model.GroupOutcome` per interval
candidate (tens of array allocations and pmf validations each), the bid
candidates are generated market by market, and every subset's pruning
bound is re-derived from Python generator expressions.  This module
evaluates each of those grids as **one** array program over the same
float64 inputs.

The hard contract is the kernel layer's (DESIGN.md §8): **bit identity**
with the scalar code being replaced — same IEEE-754 operations applied
in the same order, elementwise.  Concretely:

* every elementwise formula below is copied operation-for-operation
  from its scalar oracle (broadcasting a column of interval candidates
  against a row of outcomes performs the identical multiply/divide per
  element that the scalar loop performs one candidate at a time);
* reductions that the scalar path runs as 1-D ``np.dot`` stay per-row
  1-D ``np.dot`` here (a matrix-vector product may associate
  differently in the last ulp);
* sequential accumulations (``sum``, ``*=``, ``max`` over groups in
  subset order) stay sequential per position, so the float operation
  order is unchanged;
* winner selection replicates the scalar incumbent loop — strict
  comparison against the running best, first winner kept;
* row reductions run along each row's own contiguous axis, so the
  subset scorer can walk its rows in tiles through reused buffers and
  still match the one-shot expression it replaced;
* grid products multiply groups in subset order starting from the
  first group, so :func:`extend_score_sums` can reuse one
  :func:`extend_products` prefix for every subset that shares it:
  ``((a*b)*c)*d`` is the same product either way.

``KERNEL_ORACLES`` declares the scalar reference of every public
function and ``tests/test_batch_parity.py`` pins exact equality on
representative and adversarial grids.  These kernels are the planner's
only path; the scalar references are parity oracles.  Everything here
is a pure function of its arguments: no caches, no config reads.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..units import check_positive
from .interval import _interval_candidates, young_interval
from .problem import CircleGroupSpec, OnDemandOption
from .ratio import _COMPLETE_ATOL

#: Scalar reference for every public kernel: the vectorized function
#: must be bit-identical to the dotted scalar path, verified by
#: tests/test_batch_parity.py (coverage: tests/test_kernel_oracles.py).
KERNEL_ORACLES = {
    "bid_matrix_rows": "repro.core.bid_search.log_bid_candidates",
    "outcome_grid": "repro.core.cost_model.GroupOutcome.from_pmf",
    "optimal_interval_grid": "repro.core.interval.optimal_interval",
    "subset_bounds": "repro.core.two_level.TwoLevelOptimizer._subset_bound",
    "extend_products": "tests.oracles.subset_scores.prefix_products",
    "extend_score_sums": "tests.oracles.subset_scores.subset_score_sums",
}

#: Prefix rows per :func:`extend_score_sums` tile: its two ``(tile,
#: 256)`` float64 buffers stay within 0.5 MB together.
_EXTEND_TILE = 128


def bid_matrix_rows(
    max_prices: Sequence[float], levels: int, floor_prices: Sequence[float]
) -> List[np.ndarray]:
    """Per-market geometric bid candidates, whole grid in one program.

    Row ``i`` equals ``log_bid_candidates(max_prices[i], levels,
    floor_prices[i])`` exactly: the ``(markets, levels + 1)`` candidate
    matrix is one broadcast multiply (each element is the same single
    ``H * 2**(j - levels)`` product the scalar path computes), and the
    floor clip + dedup run per row on identical values.
    """
    if levels < 1:
        raise ConfigurationError(f"levels must be >= 1, got {levels}")
    maxima = np.asarray(max_prices, dtype=float)
    floors = np.asarray(floor_prices, dtype=float)
    if maxima.shape != floors.shape or maxima.ndim != 1:
        raise ConfigurationError(
            "max_prices and floor_prices must be 1-D of equal length"
        )
    for hi, lo in zip(maxima, floors):
        check_positive("max_price", float(hi))
        check_positive("floor_price", float(lo))
        if lo > hi:
            raise ConfigurationError(
                f"floor_price {lo} exceeds max_price {hi}"
            )
    steps = np.exp2(np.arange(levels + 1, dtype=float) - levels)
    grid = maxima[:, None] * steps[None, :]
    return [
        np.unique(np.maximum(row, lo)) for row, lo in zip(grid, floors)
    ]


def outcome_grid(
    spec: CircleGroupSpec,
    intervals: np.ndarray,
    n_steps: int,
    step_hours: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome tables for every interval candidate at once.

    Returns ``(productive, wall, ratios)`` where ``productive`` is the
    shared ``(n_steps + 1,)`` outcome row and ``wall`` / ``ratios`` are
    ``(candidates, n_steps + 1)``; row ``c`` is bit-identical to the
    ``wall`` / ``ratios`` arrays of ``GroupOutcome.from_pmf(spec, bid,
    intervals[c], pmf, price, step_hours)`` — every formula below is
    the scalar constructor's, broadcast over the candidate column.
    """
    F = np.asarray(intervals, dtype=float)
    if F.ndim != 1 or F.size == 0:
        raise ConfigurationError("intervals must be a non-empty 1-D array")
    if np.any(F <= 0):
        raise ConfigurationError("intervals must be > 0")
    T = spec.exec_time
    productive = np.minimum(step_hours * np.arange(n_steps + 1), T)
    productive[n_steps] = T
    col = F[:, None]
    # Checkpoints land at k*F strictly before completion; one exactly at
    # the finish line is never taken (from_pmf's k_max cap, elementwise).
    k_max = np.ceil(T / col - 1e-12) - 1.0
    n_ckpts = np.minimum(
        np.floor(productive / col + 1e-12), np.maximum(0.0, k_max)
    )
    wall = productive + spec.checkpoint_overhead * n_ckpts
    # ratio_array's formula, broadcast: saved progress, capped restart.
    saved = np.floor(productive / col) * col
    ratios = np.minimum(
        1.0, (T - saved + spec.recovery_overhead) / T
    )
    ratios = np.where(productive < col, 1.0, ratios)
    ratios = np.where(productive >= T - _COMPLETE_ATOL, 0.0, ratios)
    ratios[:, n_steps] = 0.0  # completion, regardless of grid rounding
    return productive, wall, ratios


def optimal_interval_grid(
    spec: CircleGroupSpec,
    bid: float,
    failure_model,
    ondemand: OnDemandOption,
    step_hours: float = 1.0,
) -> float:
    """``phi(P)`` with the refinement scan as one array program.

    Drop-in replacement for :func:`repro.core.interval.optimal_interval`
    (identical signature and return value): the candidate set, the
    single-group objective and the sequential winner rule are the
    scalar path's; only the per-candidate outcome tables are built in
    one :func:`outcome_grid` call instead of one
    ``GroupOutcome.from_pmf`` per candidate.  The per-candidate
    expectations stay 1-D ``np.dot`` per row — the scalar path's exact
    reduction — so the costs, and therefore the winning interval, are
    bit-identical.
    """
    young = young_interval(
        spec.checkpoint_overhead, failure_model.mttf_hours(bid), spec.exec_time
    )
    candidates = _interval_candidates(spec, young, step_hours)
    n = max(1, int(np.ceil(spec.exec_time / step_hours)))
    pmf = failure_model.failure_pmf(bid, n)
    price = failure_model.expected_price(bid)
    _, wall, ratios = outcome_grid(spec, candidates, pmf.size - 1, step_hours)
    full_run_cost = ondemand.full_run_cost
    n_instances = spec.n_instances
    best_f, best_cost = young, math.inf
    for c in range(candidates.size):
        cost = price * n_instances * float(
            np.dot(pmf, wall[c])
        ) + full_run_cost * float(np.dot(pmf, ratios[c]))
        if cost < best_cost - 1e-12:
            best_cost, best_f = cost, float(candidates[c])
    return best_f


def subset_bounds(
    min_spot: np.ndarray,
    min_ratio: np.ndarray,
    subsets: np.ndarray,
    full_run_cost: float,
) -> np.ndarray:
    """Admissible cost lower bounds for a whole ``(subsets, k)`` index
    matrix.

    ``min_spot`` / ``min_ratio`` are the per-group floors (``e_spot.min()``
    and ``e_ratio.min()`` of each group table); ``subsets`` holds group
    indices, one subset per row.  The accumulations run position by
    position in subset order — the identical float operation sequence as
    the scalar ``_subset_bound`` (``sum`` from zero, product from one) —
    so each bound equals its scalar counterpart bitwise and incumbent
    pruning decisions are unchanged.
    """
    idx = np.asarray(subsets, dtype=np.intp)
    if idx.ndim != 2 or idx.size == 0:
        raise ConfigurationError("subsets must be a non-empty (S, k) matrix")
    n_subsets, k = idx.shape
    spot = np.zeros(n_subsets)
    ratio = np.ones(n_subsets)
    for j in range(k):
        spot += np.asarray(min_spot, dtype=float)[idx[:, j]]
        ratio *= np.asarray(min_ratio, dtype=float)[idx[:, j]]
    return spot + ratio * full_run_cost


def _last_rows(prod_r, prod_w, table) -> Tuple[np.ndarray, np.ndarray]:
    """The last group's contiguous grid rows, checked against the
    prefix products they extend."""
    last_r = np.ascontiguousarray(table.surv_ratio)
    last_w = np.ascontiguousarray(table.below_wall)
    if prod_r is not None and (
        prod_r.ndim != 2 or prod_w is None
        or prod_w.shape != (prod_r.shape[0], last_w.shape[1])
        or last_r.shape != (last_w.shape[0], prod_r.shape[1])
        or prod_r.shape[0] == 0 or last_r.shape[0] == 0
    ):
        raise ConfigurationError("prefix products and table grids disagree")
    return last_r, last_w


def extend_products(
    prod_r: np.ndarray, prod_w: np.ndarray, table
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid products of every (prefix row, last bid) combo — the prefix
    builder.

    ``prod_r`` / ``prod_w`` are ``(P, R)`` / ``(P, W)`` products over
    the first groups of a subset (a single group's ``surv_ratio`` /
    ``below_wall`` rows seed them) and ``table`` is the next group's
    table, with ``nb`` rows.  Returns the ``(P * nb, R)`` / ``(P * nb,
    W)`` products in row-major ``(prefix, bid)`` order: one multiply
    per element, so extending a prefix group by group gives
    ``((a*b)*c)*d`` exactly as a product that multiplies the groups in
    subset order does.
    """
    last_r, last_w = _last_rows(prod_r, prod_w, table)
    n_combos = prod_r.shape[0] * last_r.shape[0]
    return (
        np.multiply(prod_r[:, None], last_r).reshape(n_combos, -1),
        np.multiply(prod_w[:, None], last_w).reshape(n_combos, -1),
    )


def extend_score_sums(
    prod_r: Optional[np.ndarray],
    prod_w: Optional[np.ndarray],
    table,
) -> Tuple[np.ndarray, np.ndarray]:
    """Quadrature sums of every (prefix row, last bid) combo — the
    prefix-extension kernel that scores a subset.

    Arguments are :func:`extend_products`' (``None`` prefixes for a
    one-group subset).  Returns ``(sum_r, sum_w)`` of length ``P * nb``
    in row-major ``(prefix, bid)`` order — the order of
    ``two_level._combo_batches`` — where ``sum_r`` sums ``prefix *
    surv_ratio`` and ``sum_w`` sums ``1 - prefix * below_wall`` over
    the grid.

    Tiles of at most ``_EXTEND_TILE`` prefix rows run through two
    reused buffers: each last-group row multiplies the whole tile, and
    each product row is summed along its own contiguous grid axis into
    a strided view of the output.  Neither the tile height nor ``P``
    changes a result, and each sum equals the one-shot expression in
    ``tests/oracles/subset_scores.py`` bit for bit.
    """
    last_r, last_w = _last_rows(prod_r, prod_w, table)
    if prod_r is None:
        return last_r.sum(axis=1), np.subtract(1.0, last_w).sum(axis=1)
    n_prefix, n_bids = prod_r.shape[0], last_r.shape[0]
    tile = min(n_prefix, _EXTEND_TILE)
    buf_r = np.empty((tile, last_r.shape[1]))
    buf_w = np.empty((tile, last_w.shape[1]))
    sum_r = np.empty(n_prefix * n_bids)
    sum_w = np.empty(n_prefix * n_bids)
    for lo in range(0, n_prefix, tile):
        hi = min(lo + tile, n_prefix)
        r, w = buf_r[:hi - lo], buf_w[:hi - lo]
        for b in range(n_bids):
            rows = slice(lo * n_bids + b, hi * n_bids, n_bids)
            np.multiply(prod_r[lo:hi], last_r[b], out=r)
            r.sum(axis=1, out=sum_r[rows])
            np.multiply(prod_w[lo:hi], last_w[b], out=w)
            np.subtract(1.0, w, out=w)
            w.sum(axis=1, out=sum_w[rows])
    return sum_r, sum_w
