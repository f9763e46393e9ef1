"""Ablation benches for the design choices DESIGN.md calls out.

* exact marginal-decomposition evaluator vs the paper's naive joint
  enumeration — same numbers, orders-of-magnitude different speed,
* logarithmic vs uniform bid candidates (covered in test_reduction).
"""

import numpy as np
import pytest

from repro.core.cost_model import GroupOutcome, evaluate
from repro.core.ondemand_select import select_ondemand_relaxed
from repro.core.optimizer import SompiOptimizer
from repro.core.two_level import TwoLevelOptimizer
from repro.core.subset import exhaustive_subset_search
from repro.experiments.env import LOOSE_DEADLINE_FACTOR
from tests.oracles.joint_enumeration import evaluate_enumerated


@pytest.fixture(scope="module")
def bt_problem(request):
    env = request.getfixturevalue("env")
    problem = env.problem("BT", LOOSE_DEADLINE_FACTOR)
    return env, problem


class TestSubsetStrategy:
    def test_exhaustive(self, benchmark, env):
        problem = env.problem("BT", LOOSE_DEADLINE_FACTOR)
        models = env.failure_models(problem)

        def run():
            _, od = select_ondemand_relaxed(
                problem.ondemand_options, problem.deadline, env.config.slack
            )
            opt = TwoLevelOptimizer(problem, models, od, env.config)
            return exhaustive_subset_search(opt, env.config.kappa), opt

        (best, opt) = benchmark(run)
        assert best is not None
        print(
            f"\nexhaustive: cost ${best.expectation.cost:.2f}, "
            f"{opt.combos_evaluated} combos"
        )


class TestEvaluatorAblation:
    @pytest.fixture(scope="class")
    def outcomes(self, env):
        problem = env.problem("BT", LOOSE_DEADLINE_FACTOR)
        models = env.failure_models(problem)
        plan = env.sompi_plan(problem)
        decision = plan.decision
        if len(decision.groups) < 2:
            # force a two-group instance so the joint space is non-trivial
            idx = [0, 3]
            outs = [
                GroupOutcome.build(
                    problem.groups[i],
                    problem.groups[i].itype.ondemand_price,
                    2.0,
                    models[problem.groups[i].key],
                )
                for i in idx
            ]
        else:
            outs = [
                GroupOutcome.build(
                    problem.groups[g.group_index],
                    g.bid,
                    g.interval,
                    models[problem.groups[g.group_index].key],
                )
                for g in decision.groups
            ]
        ondemand = problem.ondemand_options[plan.decision.ondemand_index]
        return outs, ondemand

    def test_fast_evaluator(self, benchmark, outcomes):
        outs, od = outcomes
        exp = benchmark(evaluate, outs, od)
        assert exp.cost > 0

    def test_naive_enumeration_same_result(self, benchmark, outcomes):
        outs, od = outcomes
        slow = benchmark(evaluate_enumerated, outs, od)
        fast = evaluate(outs, od)
        assert np.isclose(fast.cost, slow.cost)
        assert np.isclose(fast.time, slow.time)


class TestOptimizerEndToEnd:
    def test_full_plan(self, benchmark, env):
        problem = env.problem("BT", LOOSE_DEADLINE_FACTOR)
        models = env.failure_models(problem)

        def plan():
            return SompiOptimizer(problem, models, env.config).plan()

        result = benchmark(plan)
        assert result.expectation.time <= problem.deadline + 1e-9
