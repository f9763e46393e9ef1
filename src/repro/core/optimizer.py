"""The SOMPI facade.

Ties the pipeline of Figure 3 together:

1. select the fallback on-demand type (Section 4.1),
2. build failure models from spot history (Section 4.4),
3. run the two-level optimization over kappa-of-K subsets
   (Sections 4.2 and 4.4),

and return a :class:`SompiPlan` — the decision plus its expected cost and
time — ready to hand to an executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .. import obs
from ..config import DEFAULT_CONFIG, SompiConfig
from ..market.failure import FailureModel
from ..market.history import MarketKey, SpotPriceHistory
from .cost_model import Expectation
from .ondemand_select import select_ondemand_relaxed
from .problem import Decision, OnDemandOption, Problem
from .subset import exhaustive_subset_search
from .two_level import TwoLevelOptimizer


@dataclass(frozen=True)
class SompiPlan:
    """The optimizer's output: what to run, and what it should cost."""

    problem: Problem
    decision: Decision
    expectation: Expectation
    ondemand: OnDemandOption
    combos_evaluated: int
    used_spot: bool

    def describe(self) -> str:
        head = (
            f"expected cost ${self.expectation.cost:.2f}, "
            f"expected time {self.expectation.time:.2f} h "
            f"(deadline {self.problem.deadline:.2f} h)"
        )
        return head + "\n" + self.decision.describe(self.problem)

    def to_dict(self) -> dict:
        """JSON-friendly view of the plan (CLI ``plan --json``)."""
        return {
            "expected_cost": self.expectation.cost,
            "expected_time_hours": self.expectation.time,
            "deadline_hours": self.problem.deadline,
            "completion_probability": self.expectation.completion_probability,
            "used_spot": self.used_spot,
            "combos_evaluated": self.combos_evaluated,
            "groups": [
                {
                    "market": str(self.problem.groups[g.group_index].key),
                    "instances": self.problem.groups[g.group_index].n_instances,
                    "bid_per_hour": g.bid,
                    "checkpoint_interval_hours": g.interval,
                    "exec_time_hours": self.problem.groups[
                        g.group_index
                    ].exec_time,
                }
                for g in self.decision.groups
            ],
            "fallback": {
                "instance_type": self.ondemand.itype.name,
                "instances": self.ondemand.n_instances,
                "exec_time_hours": self.ondemand.exec_time,
                "fleet_rate_per_hour": self.ondemand.fleet_rate,
            },
        }


def build_failure_models(
    problem: Problem,
    history: SpotPriceHistory,
    step_hours: float = 1.0,
) -> dict[MarketKey, FailureModel]:
    """One failure model per circle-group market, from the given history."""
    with obs.get_metrics().timer("plan.build_models"):
        return {
            spec.key: FailureModel(history.get(spec.key), step_hours=step_hours)
            for spec in problem.groups
        }


class SompiOptimizer:
    """Plans a hybrid spot + on-demand execution for one problem."""

    def __init__(
        self,
        problem: Problem,
        failure_models: Mapping[MarketKey, FailureModel],
        config: SompiConfig = DEFAULT_CONFIG,
    ) -> None:
        self.problem = problem
        self.failure_models = dict(failure_models)
        self.config = config

    @classmethod
    def from_history(
        cls,
        problem: Problem,
        history: SpotPriceHistory,
        config: SompiConfig = DEFAULT_CONFIG,
    ) -> "SompiOptimizer":
        models = build_failure_models(
            problem, history, step_hours=config.time_step_hours
        )
        return cls(problem, models, config)

    def plan(self) -> SompiPlan:
        """Run the full pipeline and return the best feasible plan.

        If every spot subset is infeasible (or uneconomical), the plan
        degenerates to a pure on-demand run — the model's hybrid execution
        always has that fallback available.

        Raises
        ------
        InfeasibleError
            If even the pure on-demand options cannot meet the deadline.
        """
        metrics = obs.get_metrics()
        metrics.inc("plan.calls")
        with metrics.timer("plan.ondemand_select"):
            od_index, ondemand = select_ondemand_relaxed(
                self.problem.ondemand_options, self.problem.deadline,
                self.config.slack,
            )
        optimizer = TwoLevelOptimizer(
            self.problem, self.failure_models, ondemand, self.config
        )
        with metrics.timer("plan.subset_search"):
            result = exhaustive_subset_search(optimizer, self.config.kappa)
        optimizer.save_search_sidecar()
        metrics.inc("plan.combos_evaluated", optimizer.combos_evaluated)

        ondemand_only = _ondemand_only_expectation(ondemand)
        if result is None or result.expectation.cost >= ondemand_only.cost:
            decision = Decision(groups=(), ondemand_index=od_index)
            return SompiPlan(
                problem=self.problem,
                decision=decision,
                expectation=ondemand_only,
                ondemand=ondemand,
                combos_evaluated=optimizer.combos_evaluated,
                used_spot=False,
            )
        return SompiPlan(
            problem=self.problem,
            decision=result.to_decision(od_index),
            expectation=result.expectation,
            ondemand=ondemand,
            combos_evaluated=optimizer.combos_evaluated,
            used_spot=True,
        )


def _ondemand_only_expectation(ondemand: OnDemandOption) -> Expectation:
    """Deterministic outcome of running everything on on-demand."""
    return Expectation(
        cost=ondemand.full_run_cost,
        time=ondemand.exec_time,
        spot_cost=0.0,
        ondemand_cost=ondemand.full_run_cost,
        expected_min_ratio=1.0,
        expected_max_wall=0.0,
        completion_probability=1.0,
    )
