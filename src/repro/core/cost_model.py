"""Expected monetary cost and execution time (Formulas 1-11).

The paper writes the expectations as sums over the joint failure-time
vector ``(t_1, ..., t_K)``, which costs ``O(prod_i T_i)`` to enumerate.
Because group failures are independent and every term of the objective is
either *separable* in the groups (``Cost^S``), a *max* over groups
(``Time^S``) or a *min* over groups (the best-checkpoint ``Ratio`` that
prices the on-demand recovery), the expectations factor through the
per-group marginals:

* ``E[Cost^S] = sum_i S_i M_i E[X_i]`` with
  ``X_i = t_i + O_i floor(t_i / F_i)`` the wall time of group ``i``,
* ``E[Time^S] = E[max_i X_i]`` via the product of per-group CDFs,
* ``E[Cost^OD] = T D M * E[min_i Ratio_i]`` and
  ``E[Time^OD] = T * E[min_i Ratio_i]`` via the product of per-group
  survival functions,

all in ``O(sum_i T_i log)`` — see DESIGN.md section 3.  The naive joint
enumeration is the test oracle ``tests/oracles/joint_enumeration.py``,
and the test suite cross-validates the two on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..market.failure import FailureModel
from .problem import CircleGroupSpec, OnDemandOption
from .ratio import ratio_array


@dataclass(frozen=True)
class GroupOutcome:
    """Per-group randomness under one fixed (bid, interval) choice.

    ``pmf[t]`` for ``t < n_steps`` is the probability the group dies
    during productive step ``t``; ``pmf[n_steps]`` is the probability it
    completes.  ``productive``, ``wall`` and ``ratios`` are the
    corresponding outcome values, all indexed by ``t``.
    """

    spec: CircleGroupSpec
    bid: float
    interval: float
    step_hours: float
    pmf: np.ndarray
    expected_price: float
    productive: np.ndarray
    wall: np.ndarray
    ratios: np.ndarray

    @classmethod
    def build(
        cls,
        spec: CircleGroupSpec,
        bid: float,
        interval: float,
        failure_model: FailureModel,
        step_hours: float = 1.0,
    ) -> "GroupOutcome":
        """Assemble the outcome table from a failure model."""
        if interval <= 0:
            raise ConfigurationError(f"interval must be > 0, got {interval}")
        n = max(1, int(np.ceil(spec.exec_time / step_hours)))
        pmf = failure_model.failure_pmf(bid, n)
        return cls.from_pmf(
            spec,
            bid,
            interval,
            pmf,
            expected_price=failure_model.expected_price(bid),
            step_hours=step_hours,
        )

    @classmethod
    def from_pmf(
        cls,
        spec: CircleGroupSpec,
        bid: float,
        interval: float,
        pmf: np.ndarray,
        expected_price: float,
        step_hours: float = 1.0,
    ) -> "GroupOutcome":
        """Assemble from an explicit failure pmf (tests, oracles)."""
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size < 2:
            raise ConfigurationError("pmf must be 1-D with length n_steps + 1")
        if np.any(pmf < -1e-12) or abs(pmf.sum() - 1.0) > 1e-9:
            raise ConfigurationError("pmf must be non-negative and sum to 1")
        n = pmf.size - 1
        # Productive time at each outcome: t*step for failures (floored to
        # the step grid, as the paper discretises), T for completion.
        productive = np.minimum(step_hours * np.arange(n + 1), spec.exec_time)
        productive[n] = spec.exec_time
        # Checkpoints land at k*F strictly before completion; one exactly at
        # the finish line is never taken (see core.ckpt_math).
        k_max = int(np.ceil(spec.exec_time / interval - 1e-12)) - 1
        n_ckpts = np.minimum(np.floor(productive / interval + 1e-12), max(0, k_max))
        wall = productive + spec.checkpoint_overhead * n_ckpts
        ratios = ratio_array(
            productive, spec.exec_time, interval, spec.recovery_overhead
        )
        ratios[n] = 0.0  # completion, regardless of grid rounding
        return cls(
            spec=spec,
            bid=bid,
            interval=interval,
            step_hours=step_hours,
            pmf=pmf,
            expected_price=float(expected_price),
            productive=productive,
            wall=wall,
            ratios=ratios,
        )

    @property
    def completion_probability(self) -> float:
        return float(self.pmf[-1])

    def expected_spot_cost(self) -> float:
        """``S_i * M_i * E[X_i]`` — this group's expected spot bill."""
        return (
            self.expected_price
            * self.spec.n_instances
            * float(np.dot(self.pmf, self.wall))
        )


@dataclass(frozen=True)
class Expectation:
    """Evaluated objective and its decomposition."""

    cost: float
    time: float
    spot_cost: float
    ondemand_cost: float
    expected_min_ratio: float
    expected_max_wall: float
    completion_probability: float

    def meets_deadline(self, deadline: float) -> bool:
        return self.time <= deadline + 1e-9


# ----------------------------------------------------------------------
# Extreme-value helpers over independent discrete non-negative RVs
# ----------------------------------------------------------------------
class Marginal(NamedTuple):
    """One discrete RV ``(values, pmf)``, prepared for survival lookups.

    Everything here is a pure function of the RV, so the planner prepares
    each table row once and reuses it in every exact evaluation that
    touches the row (DESIGN.md §8, "Prepared marginals").
    """

    support: np.ndarray  # np.unique(values): the distinct values, sorted
    values: np.ndarray  # the values, stably sorted
    tail0: np.ndarray  # tail0[k] = P(Y >= values[k]); tail0[-1] = 0.0


def prepare_marginal(values: np.ndarray, pmf: np.ndarray) -> Marginal:
    """The row-only part of every survival lookup, computed once."""
    values = np.asarray(values, float)
    pmf = np.asarray(pmf, float)
    order = np.argsort(values, kind="stable")
    tail = np.cumsum(pmf[order][::-1])[::-1]
    return Marginal(
        np.unique(values), values[order], np.concatenate([tail, [0.0]])
    )


def outcome_marginals(outcome: GroupOutcome) -> Tuple[Marginal, Marginal]:
    """``(ratio, wall)`` marginals of one group outcome."""
    return (
        prepare_marginal(outcome.ratios, outcome.pmf),
        prepare_marginal(outcome.wall, outcome.pmf),
    )


def survival_at(marginal: Marginal, grid: np.ndarray) -> np.ndarray:
    """``P(Y >= g)`` for each grid point; 0 beyond the largest value."""
    return marginal.tail0[np.searchsorted(marginal.values, grid, side="left")]


def _positive_grid(marginals: Sequence[Marginal]) -> np.ndarray:
    """Every distinct positive value any of the RVs takes, sorted."""
    grid = np.unique(np.concatenate([m.support for m in marginals]))
    return grid[grid > 0]


def expected_min_prepared(marginals: Sequence[Marginal]) -> float:
    """``E[min_i Y_i]`` for independent discrete non-negative RVs."""
    grid = _positive_grid(marginals)
    if grid.size == 0:
        return 0.0
    surv = np.ones(grid.size)
    for m in marginals:
        surv *= survival_at(m, grid)
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, surv))


def expected_max_prepared(marginals: Sequence[Marginal]) -> float:
    """``E[max_i Y_i]`` for independent discrete non-negative RVs."""
    grid = _positive_grid(marginals)
    if grid.size == 0:
        return 0.0
    # P(max >= g) = 1 - prod_i (1 - P(Y_i >= g))
    prod_below = np.ones(grid.size)
    for m in marginals:
        prod_below *= 1.0 - survival_at(m, grid)
    deltas = np.diff(np.concatenate([[0.0], grid]))
    return float(np.dot(deltas, 1.0 - prod_below))


def expected_min(
    values_list: Sequence[np.ndarray], pmf_list: Sequence[np.ndarray]
) -> float:
    """``E[min_i Y_i]`` for independent discrete non-negative RVs."""
    return expected_min_prepared(
        [prepare_marginal(v, p) for v, p in zip(values_list, pmf_list)]
    )


def expected_max(
    values_list: Sequence[np.ndarray], pmf_list: Sequence[np.ndarray]
) -> float:
    """``E[max_i Y_i]`` for independent discrete non-negative RVs."""
    return expected_max_prepared(
        [prepare_marginal(v, p) for v, p in zip(values_list, pmf_list)]
    )


# ----------------------------------------------------------------------
# Evaluators
# ----------------------------------------------------------------------
def evaluate(
    outcomes: Sequence[GroupOutcome], ondemand: OnDemandOption
) -> Expectation:
    """Exact expected cost/time via per-group marginals (fast path)."""
    return evaluate_prepared(
        outcomes, [outcome_marginals(o) for o in outcomes], ondemand
    )


def evaluate_prepared(
    outcomes: Sequence[GroupOutcome],
    marginals: Sequence[Tuple[Marginal, Marginal]],
    ondemand: OnDemandOption,
) -> Expectation:
    """:func:`evaluate` with each outcome's ``(ratio, wall)`` marginals
    already prepared (the planner caches them per table row)."""
    if not outcomes:
        raise ConfigurationError("need at least one group outcome")
    spot_cost = sum(o.expected_spot_cost() for o in outcomes)
    e_min_ratio = expected_min_prepared([m[0] for m in marginals])
    e_max_wall = expected_max_prepared([m[1] for m in marginals])
    od_cost = e_min_ratio * ondemand.full_run_cost
    time = e_max_wall + e_min_ratio * ondemand.exec_time
    completion = 1.0 - float(
        np.prod([1.0 - o.completion_probability for o in outcomes])
    )
    return Expectation(
        cost=spot_cost + od_cost,
        time=time,
        spot_cost=spot_cost,
        ondemand_cost=od_cost,
        expected_min_ratio=e_min_ratio,
        expected_max_wall=e_max_wall,
        completion_probability=completion,
    )
