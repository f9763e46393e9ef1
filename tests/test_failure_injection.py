"""Failure-injection and pathological-market tests.

Each test drives a component through a hostile scenario the normal
paths never produce: markets that never admit a launch, prices that
flap every step, spikes that interrupt checkpoints mid-write, traces
that end mid-run, and optimizers given only doomed candidates.
"""

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.optimizer import SompiOptimizer
from repro.core.problem import (
    Decision,
    GroupDecision,
    OnDemandOption,
    Problem,
)
from repro.errors import TraceError
from repro.execution.adaptive import AdaptiveExecutor
from repro.execution.replay import replay_decision
from repro.market.failure import FailureModel
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group, replay_one_window


def problem_with(trace, **group_kw):
    g = make_group(n_instances=2, **group_kw)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g,), ondemand_options=(od,), deadline=30.0)
    h = SpotPriceHistory()
    h.add(g.key, trace)
    return problem, h


class TestHostileMarkets:
    def test_price_always_above_bid(self):
        problem, h = problem_with(
            SpotPriceTrace([0.0], [5.0], 500.0), exec_time=6.0
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        result = replay_decision(problem, d, h, 0.0)
        assert result.completed_by == "ondemand"
        assert result.group_records[0].launched is False

    def test_flapping_price_every_step(self):
        """Price crosses the bid every single hour: maximum churn."""
        times = np.arange(0.0, 400.0, 1.0)
        prices = np.where(np.arange(times.size) % 2 == 0, 0.05, 0.9)
        problem, h = problem_with(
            SpotPriceTrace(times, prices, 401.0),
            exec_time=6.0,
            overhead=0.1,
            recovery=0.1,
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 0.5),), ondemand_index=0)
        single = replay_decision(problem, d, h, 0.0)
        assert single.completed_by == "ondemand"  # dies within the first hour
        persistent = replay_decision(problem, d, h, 0.0, semantics="persistent")
        assert persistent.completed  # grinds through, half an hour at a time
        assert persistent.makespan > single.makespan

    def test_death_exactly_at_checkpoint_completion(self):
        """Spike lands at the instant a checkpoint write finishes."""
        # F=2, O=0.5: first checkpoint completes at wall 2.5
        problem, h = problem_with(
            SpotPriceTrace([0.0, 2.5], [0.05, 0.9], 400.0),
            exec_time=6.0,
            overhead=0.5,
            recovery=0.5,
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        result = replay_decision(problem, d, h, 0.0)
        rec = result.group_records[0]
        assert rec.saved == pytest.approx(2.0)  # the checkpoint counts

    def test_death_mid_checkpoint_write(self):
        """Spike lands during the checkpoint write: progress not saved."""
        problem, h = problem_with(
            SpotPriceTrace([0.0, 2.2], [0.05, 0.9], 400.0),
            exec_time=6.0,
            overhead=0.5,
            recovery=0.5,
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        result = replay_decision(problem, d, h, 0.0)
        rec = result.group_records[0]
        assert rec.saved == 0.0
        assert result.ondemand_hours == pytest.approx(5.0)  # full rerun

    def test_trace_ends_mid_window(self):
        problem, h = problem_with(
            SpotPriceTrace([0.0], [0.05], 10.0), exec_time=6.0
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        with pytest.raises(TraceError):
            replay_one_window(problem, d, h, 0.0, 50.0)

    def test_zero_price_market(self):
        """A free market (price floor 0 is allowed by the trace type)."""
        problem, h = problem_with(
            SpotPriceTrace([0.0], [0.0], 400.0), exec_time=6.0
        )
        d = Decision(groups=(GroupDecision(0, 0.1, 6.0),), ondemand_index=0)
        result = replay_decision(problem, d, h, 0.0)
        assert result.completed
        assert result.cost == 0.0


class TestOptimizerUnderHostility:
    def test_all_candidates_doomed_falls_back_to_ondemand(self):
        """Every market is unaffordable: the plan must be pure on-demand."""
        g1 = make_group(zone="us-east-1a", exec_time=6.0)
        g2 = make_group(zone="us-east-1b", exec_time=6.0)
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        problem = Problem(groups=(g1, g2), ondemand_options=(od,), deadline=30.0)
        # Spot price permanently above on-demand: spot can never win.
        models = {
            g.key: FailureModel(SpotPriceTrace([0.0], [9.9], 400.0))
            for g in (g1, g2)
        }
        plan = SompiOptimizer(problem, models, SompiConfig(kappa=2)).plan()
        assert not plan.used_spot
        assert plan.expectation.cost == pytest.approx(od.full_run_cost)

    def test_spiky_training_window_still_produces_plan(self):
        rng_times = np.arange(0.0, 300.0, 0.5)
        rng = np.random.default_rng(3)
        prices = np.where(rng.random(rng_times.size) < 0.3, 2.0, 0.02)
        trace = SpotPriceTrace(rng_times, prices, 301.0)
        problem, h = problem_with(trace, exec_time=6.0)
        plan = SompiOptimizer.from_history(problem, h, SompiConfig(kappa=1)).plan()
        assert plan.expectation.time <= problem.deadline + 1e-9


class TestAdaptiveUnderHostility:
    def test_market_collapses_after_start(self, small_env):
        """All spot becomes unaffordable mid-run: adaptive must still finish."""
        problem = small_env.problem("BT", 1.5)
        # overwrite every trace with: cheap before t0+1, hostile after
        t0 = small_env.train_end + 10.0
        hostile = SpotPriceHistory()
        for key, trace in small_env.history.items():
            cheap = trace.slice(trace.start_time, t0 + 1.0)
            wall = SpotPriceTrace([t0 + 1.0], [99.0], trace.end_time)
            hostile.add(key, cheap.concat(wall.shift(0.0 - 0.0)))
        ex = AdaptiveExecutor(problem, hostile, small_env.config)
        res = ex.run(t0)
        assert res.completed
        assert res.fallback_used or res.makespan <= problem.deadline * 1.2

    def test_zero_length_history_prefix_rejected(self, small_env):
        problem = small_env.problem("BT", 1.5)
        ex = AdaptiveExecutor(problem, small_env.history, small_env.config)
        with pytest.raises(Exception):
            ex.run(start_time=-1e9)  # before any history exists
