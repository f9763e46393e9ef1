"""Microbenchmarks of the hot components.

These guard the optimization-overhead claim of the paper (Section 5.3:
"generally smaller than 1% of the total execution time"): for hour-scale
MPI jobs, planning must take seconds, which means the failure model,
cost evaluation and replay must each sit in the micro-to-millisecond
range.
"""

import numpy as np
import pytest

from repro.core.problem import Decision, GroupDecision
from repro.experiments.env import LOOSE_DEADLINE_FACTOR
from repro.market.failure import FailureModel
from repro.market.history import MarketKey
from repro.mpi.timing import estimate_execution_hours
from tests.oracles.scalar_replay import replay_decision


@pytest.fixture(scope="module")
def bt_problem(env):
    return env.problem("BT", LOOSE_DEADLINE_FACTOR)


def test_failure_model_build(benchmark, env):
    trace = env.history.get(MarketKey("m1.medium", "us-east-1a"))
    fm = benchmark(FailureModel, trace)
    assert fm.n_steps > 0


def test_failure_pmf(benchmark, env):
    trace = env.history.get(MarketKey("m1.medium", "us-east-1a"))
    fm = FailureModel(trace)
    pmf = benchmark(fm.failure_pmf, 0.02, 24)
    assert np.isclose(pmf.sum(), 1.0)


def test_trace_replay(benchmark, env, bt_problem):
    decision = Decision(
        groups=(GroupDecision(0, 0.02, 4.0), GroupDecision(4, 0.02, 4.0)),
        ondemand_index=2,
    )
    result = benchmark(
        replay_decision, bt_problem, decision, env.history, env.train_end + 5.0
    )
    assert result.cost >= 0


def test_time_estimator(benchmark, env):
    profile = env.app("BT").profile()
    from repro.cloud.instance_types import get_instance_type

    hours = benchmark(estimate_execution_hours, profile, get_instance_type("cc2.8xlarge"))
    assert hours > 0


def test_synthetic_market_generation(benchmark):
    from repro.market.presets import build_history

    history = benchmark.pedantic(
        build_history, args=(24.0 * 35, 99), rounds=3, iterations=1
    )
    assert len(history) == 12
