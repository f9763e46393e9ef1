"""Section 4.2.2 — optimization-space reduction.

The paper's worked example: 100 candidate bids and 10 candidate
checkpoint intervals per group, 4 circle groups.

* naive joint search: ``(100 * 10)^4 = 10^12`` evaluations,
* after dimension reduction (``F = phi(P)``): ``100^4 = 10^8``,
* after the logarithmic bid search: ``(log2 100)^4 ~ 2400``.

This experiment recomputes the counts, then *measures* the practical
claim on a real two-group instance: the logarithmic candidate set finds
a solution of (near-)equal quality to a dense uniform bid grid while
evaluating orders of magnitude fewer combinations.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..core.bid_search import log_bid_candidates, uniform_bid_candidates
from ..core.cost_model import GroupOutcome, evaluate
from ..core.grid_eval import optimal_interval_grid
from ..core.ondemand_select import select_ondemand_relaxed
from .common import ExperimentResult
from .env import ExperimentEnv, LOOSE_DEADLINE_FACTOR


def analytic_counts(
    n_bids: int = 100, n_intervals: int = 10, kappa: int = 4
) -> dict[str, float]:
    log_bids = math.ceil(math.log2(n_bids))
    return {
        "naive": float((n_bids * n_intervals) ** kappa),
        "dimension_reduced": float(n_bids**kappa),
        "log_search": float(log_bids**kappa),
    }


def run(env: ExperimentEnv, app_name: str = "BT") -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="RED",
        title="Optimization-space reduction (Section 4.2.2)",
        columns=("method", "evaluations", "best cost $", "wall s"),
    )
    counts = analytic_counts()
    result.notes.append(
        "paper example (100 bids x 10 intervals, 4 groups): "
        f"naive {counts['naive']:.0e} -> phi(P) {counts['dimension_reduced']:.0e} "
        f"-> log search {counts['log_search']:.0f}"
    )
    result.data["analytic"] = counts

    # Measured comparison on a 2-group instance of the real problem.
    problem = env.problem(app_name, LOOSE_DEADLINE_FACTOR)
    models = env.failure_models(problem)
    _, ondemand = select_ondemand_relaxed(
        problem.ondemand_options, problem.deadline, env.config.slack
    )
    # Two deadline-feasible groups, cheapest per hour first (a group whose
    # failure-free time already exceeds the deadline can never win).
    feasible = [
        i
        for i in range(problem.n_groups)
        if problem.groups[i].exec_time <= problem.deadline * 0.95
    ]
    indices = sorted(
        feasible, key=lambda i: problem.groups[i].itype.ondemand_price
    )[:2]

    def search(candidate_fn) -> tuple[float, int, float]:
        t0 = time.perf_counter()
        per_group = []
        for i in indices:
            spec = problem.groups[i]
            fm = models[spec.key]
            bids = candidate_fn(fm)
            outcomes = []
            for bid in bids:
                interval = optimal_interval_grid(spec, float(bid), fm, ondemand)
                outcomes.append(GroupOutcome.build(spec, float(bid), interval, fm))
            per_group.append(outcomes)
        best = np.inf
        evals = 0
        for oa in per_group[0]:
            for ob in per_group[1]:
                exp = evaluate([oa, ob], ondemand)
                evals += 1
                if exp.meets_deadline(problem.deadline):
                    best = min(best, exp.cost)
        return best, evals, time.perf_counter() - t0

    log_best, log_evals, log_wall = search(
        lambda fm: log_bid_candidates(
            fm.max_price(), env.config.bid_levels, floor_price=fm.min_price()
        )
    )
    uni_best, uni_evals, uni_wall = search(
        lambda fm: uniform_bid_candidates(fm.max_price(), 100)
    )
    result.add_row("uniform grid (100 bids)", uni_evals, uni_best, uni_wall)
    result.add_row(
        f"log search (levels={env.config.bid_levels})", log_evals, log_best, log_wall
    )
    result.data["measured"] = {
        "log": (log_best, log_evals),
        "uniform": (uni_best, uni_evals),
    }
    quality = log_best / uni_best if uni_best > 0 else float("nan")
    result.notes.append(
        f"log search evaluates {uni_evals / log_evals:.0f}x fewer combinations "
        f"at {100 * (quality - 1):.1f}% cost penalty"
    )
    return result
