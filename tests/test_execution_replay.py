"""Trace-replay tests with hand-checkable traces."""

import pytest

from repro.cloud.instance_types import get_instance_type
from repro.core.problem import Decision, GroupDecision, OnDemandOption, Problem
from repro.errors import ConfigurationError
from repro.execution.replay import decision_horizon, replay_decision
from repro.market.history import MarketKey, SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group, replay_one_window


def history_for(problem, traces):
    h = SpotPriceHistory()
    for spec, trace in zip(problem.groups, traces):
        h.add(spec.key, trace)
    return h


@pytest.fixture
def one_group_problem():
    g = make_group(exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    return Problem(groups=(g,), ondemand_options=(od,), deadline=12.0)


def flat(price=0.05, hours=400.0):
    return SpotPriceTrace([0.0], [price], hours)


class TestCompletionPath:
    def test_failure_free_run(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(
            groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0
        )
        h = history_for(problem, [flat()])
        result = replay_decision(problem, decision, h, start_time=0.0)
        # F=2, T=6: checkpoints at 2 and 4 -> wall 7.0
        assert result.completed_by == "m1.small@us-east-1a"
        assert result.makespan == pytest.approx(7.0)
        # cost = price * wall * instances
        assert result.cost == pytest.approx(0.05 * 7.0 * 2)
        assert result.ondemand_hours == 0.0

    def test_no_checkpoint_interval_at_T(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(
            groups=(GroupDecision(0, 0.10, 6.0),), ondemand_index=0
        )
        h = history_for(problem, [flat()])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.makespan == pytest.approx(6.0)

    def test_waits_for_launch(self, one_group_problem):
        problem = one_group_problem
        trace = SpotPriceTrace([0.0, 3.0], [0.50, 0.05], 400.0)
        decision = Decision(groups=(GroupDecision(0, 0.10, 6.0),), ondemand_index=0)
        h = history_for(problem, [trace])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.makespan == pytest.approx(3.0 + 6.0)


class TestFailurePath:
    def test_death_then_ondemand_recovery(self, one_group_problem):
        problem = one_group_problem
        # dies at t=3 having checkpointed 2h of work (F=2, one ckpt at 2,
        # its write finished at wall 2.5; work resumed 2.5..3.0)
        trace = SpotPriceTrace([0.0, 3.0], [0.05, 0.50], 400.0)
        decision = Decision(groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0)
        h = history_for(problem, [trace])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.completed_by == "ondemand"
        rec = result.group_records[0]
        assert rec.terminated and not rec.completed
        assert rec.saved == pytest.approx(2.0)
        # ratio = (6 - 2 + 0.5)/6 = 0.75 -> od hours = 0.75 * 5
        assert result.ondemand_hours == pytest.approx(3.75)
        assert result.makespan == pytest.approx(3.0 + 3.75)
        od_cost = 3.75 * 8 * 0.210
        spot_cost = 0.05 * 3.0 * 2
        assert result.cost == pytest.approx(od_cost + spot_cost)

    def test_death_before_first_checkpoint_loses_everything(self, one_group_problem):
        problem = one_group_problem
        trace = SpotPriceTrace([0.0, 1.0], [0.05, 0.50], 400.0)
        decision = Decision(groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0)
        h = history_for(problem, [trace])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.ondemand_hours == pytest.approx(5.0)  # full rerun

    def test_never_launches_goes_straight_to_ondemand(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.01, 2.0),), ondemand_index=0)
        h = history_for(problem, [flat(price=0.5)])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.completed_by == "ondemand"
        assert result.cost == pytest.approx(5.0 * 8 * 0.210)

    def test_empty_decision_is_pure_ondemand(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(), ondemand_index=0)
        h = history_for(problem, [flat()])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.makespan == 5.0
        assert result.cost == pytest.approx(5.0 * 8 * 0.210)


class TestReplication:
    @pytest.fixture
    def two_group_problem(self):
        ga = make_group(zone="us-east-1a", exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
        gb = make_group(zone="us-east-1b", exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        return Problem(groups=(ga, gb), ondemand_options=(od,), deadline=12.0)

    def test_winner_terminates_loser(self, two_group_problem):
        problem = two_group_problem
        # zone a launches late, zone b runs straight through
        slow = SpotPriceTrace([0.0, 4.0], [0.50, 0.05], 400.0)
        fast = flat(0.05)
        decision = Decision(
            groups=(GroupDecision(0, 0.10, 6.0), GroupDecision(1, 0.10, 6.0)),
            ondemand_index=0,
        )
        h = history_for(problem, [slow, fast])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.completed_by == "m1.small@us-east-1b"
        assert result.makespan == pytest.approx(6.0)
        # loser ran only [4, 6): pays 2h
        loser = result.group_records[0]
        assert loser.end_time == pytest.approx(6.0)
        assert result.cost == pytest.approx(0.05 * 6.0 * 2 + 0.05 * 2.0 * 2)

    def test_best_checkpoint_wins_recovery(self, two_group_problem):
        problem = two_group_problem
        # a dies at 3 with ckpt at 2; b dies at 5 with ckpts at 2,4
        die3 = SpotPriceTrace([0.0, 3.0], [0.05, 0.9], 400.0)
        die55 = SpotPriceTrace([0.0, 5.5], [0.05, 0.9], 400.0)
        decision = Decision(
            groups=(GroupDecision(0, 0.10, 2.0), GroupDecision(1, 0.10, 2.0)),
            ondemand_index=0,
        )
        h = history_for(problem, [die3, die55])
        result = replay_decision(problem, decision, h, 0.0)
        assert result.completed_by == "ondemand"
        # b saved 4h: ratio (6-4+0.5)/6 = 5/12 -> od = 5/12*5
        assert result.ondemand_hours == pytest.approx(5 * 5 / 12)
        # recovery starts when the LAST group dies (5.5)
        assert result.makespan == pytest.approx(5.5 + 5 * 5 / 12)


class TestWindow:
    def test_window_banks_progress_of_survivor(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0)
        h = history_for(problem, [flat()])
        out = replay_one_window(problem, decision, h, 0.0, 3.0)
        assert not out.completed
        rec = out.records[0]
        # wall 3.0: 2h work + 0.5 ckpt + 0.5 work = 2.5 productive; the
        # boundary checkpoint costs 0.5h, so only work reached by wall
        # 2.5 is banked: exactly the 2h prefix.
        assert rec.productive == pytest.approx(2.5)
        assert rec.saved == pytest.approx(2.0)
        assert out.gained_fraction == pytest.approx(2.0 / 6.0)

    def test_window_with_initial_fraction(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.10, 6.0),), ondemand_index=0)
        h = history_for(problem, [flat()])
        # half the 6h run done: 3h remaining, no failures -> completes at t=3
        out = replay_one_window(problem, decision, h, 0.0, 10.0, works=[3.0])
        assert out.completed
        assert out.completion_time == pytest.approx(3.0)

    def test_dead_group_keeps_only_checkpointed(self, one_group_problem):
        problem = one_group_problem
        trace = SpotPriceTrace([0.0, 3.0], [0.05, 0.9], 400.0)
        decision = Decision(groups=(GroupDecision(0, 0.10, 2.0),), ondemand_index=0)
        h = history_for(problem, [trace])
        out = replay_one_window(problem, decision, h, 0.0, 10.0)
        rec = out.records[0]
        assert rec.terminated
        assert rec.saved == pytest.approx(2.0)  # not the 2.5 productive
        assert out.all_dead_at == pytest.approx(3.0)

    def test_empty_window_rejected(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        h = history_for(problem, [flat()])
        with pytest.raises(ConfigurationError):
            replay_one_window(problem, decision, h, 5.0, 5.0)

    def test_bad_fraction_rejected(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        h = history_for(problem, [flat()])
        # 150% of the 6h run already done leaves -3h of work.
        with pytest.raises(ConfigurationError):
            replay_one_window(problem, decision, h, 0.0, 1.0, works=[-3.0])


class TestHorizon:
    def test_horizon_covers_slowest_group(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
        # total wall = 7.0; horizon = 3*7 + 5 (ondemand)
        assert decision_horizon(problem, decision) == pytest.approx(26.0)

    def test_pure_ondemand_horizon(self, one_group_problem):
        problem = one_group_problem
        decision = Decision(groups=(), ondemand_index=0)
        assert decision_horizon(problem, decision) == 5.0
