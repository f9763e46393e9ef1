"""SompiOptimizer facade tests."""

import pytest

from repro.config import SompiConfig
from repro.core.optimizer import SompiOptimizer, build_failure_models
from repro.core.problem import Problem
from repro.errors import InfeasibleError
from repro.experiments.env import LOOSE_DEADLINE_FACTOR, TIGHT_DEADLINE_FACTOR


class TestPlanning:
    def test_loose_plan_uses_spot_and_saves(self, small_env):
        problem = small_env.problem("BT", LOOSE_DEADLINE_FACTOR)
        plan = small_env.sompi_plan(problem)
        assert plan.used_spot
        baseline = small_env.baseline_cost(small_env.app("BT"))
        assert plan.expectation.cost < baseline
        assert plan.expectation.time <= problem.deadline + 1e-9

    def test_tight_plan_still_feasible(self, small_env):
        problem = small_env.problem("BT", TIGHT_DEADLINE_FACTOR)
        plan = small_env.sompi_plan(problem)
        assert plan.expectation.time <= problem.deadline + 1e-9

    def test_plan_respects_kappa(self, small_env):
        problem = small_env.problem("BT", LOOSE_DEADLINE_FACTOR)
        plan = small_env.sompi_plan(problem)
        assert len(plan.decision.groups) <= small_env.config.kappa

    def test_impossible_deadline_raises(self, small_env):
        with pytest.raises(InfeasibleError):
            problem = small_env.problem("BT", deadline_hours=0.5)
            small_env.sompi_plan(problem)

    def test_describe_mentions_cost_and_deadline(self, small_env):
        problem = small_env.problem("BT", LOOSE_DEADLINE_FACTOR)
        plan = small_env.sompi_plan(problem)
        text = plan.describe()
        assert "expected cost" in text and "deadline" in text

    def test_loose_cheaper_or_equal_to_tight(self, small_env):
        loose = small_env.sompi_plan(small_env.problem("BT", LOOSE_DEADLINE_FACTOR))
        tight = small_env.sompi_plan(small_env.problem("BT", TIGHT_DEADLINE_FACTOR))
        assert loose.expectation.cost <= tight.expectation.cost + 1e-6


class TestBuildModels:
    def test_one_model_per_group(self, small_env):
        problem = small_env.problem("BT", LOOSE_DEADLINE_FACTOR)
        models = build_failure_models(problem, small_env.training_history())
        assert set(models) == {g.key for g in problem.groups}

    def test_from_history_classmethod(self, small_env):
        problem = small_env.problem("FT", LOOSE_DEADLINE_FACTOR)
        opt = SompiOptimizer.from_history(
            problem, small_env.training_history(), small_env.config
        )
        plan = opt.plan()
        assert plan.expectation.cost > 0
