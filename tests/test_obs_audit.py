"""Tests for :mod:`repro.obs` — metrics and audit invariants.

The observability layer is the tripwire that keeps cost-accounting
drift out of the replay/adaptive paths: these tests exercise the
metrics registry directly, then drive real replays with audit switched
on and assert the group records, the ledger text, and the conservation
invariants all agree — scalar vs batched, window vs full run,
continuous vs hourly billing.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.cloud.billing import CONTINUOUS, HOURLY, CostItem
from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.problem import Decision, GroupDecision, OnDemandOption, Problem
from repro.errors import AuditError, ConfigurationError
from repro.execution.adaptive import AdaptiveExecutor
from repro.execution.batch_replay import replay_batch
from repro.execution.montecarlo import sample_start_times
from repro.execution.replay import (
    checkpoint_storage_cost,
    checkpoint_write_times,
    replay_decision,
)
from repro.execution.results import MonteCarloSummary
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from repro.obs.metrics import Metrics
from repro.units import BYTES_PER_GB
from tests.conftest import make_group, replay_one_window
from tests.oracles import scalar_replay


def flat_setup(exec_time=6.0, image_gb=0.0, price=0.05):
    """One group on a flat cheap market (never dies at bid 0.1)."""
    g = make_group(exec_time=exec_time, overhead=0.5, recovery=0.5, n_instances=2)
    if image_gb:
        g = dataclasses.replace(g, image_bytes=image_gb * BYTES_PER_GB)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g,), ondemand_options=(od,), deadline=30.0)
    h = SpotPriceHistory()
    h.add(g.key, SpotPriceTrace([0.0], [price], 600.0))
    return problem, h


def spike_setup():
    """One group that dies at hour 3 (price spikes above the 0.1 bid)."""
    g = make_group(exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g,), ondemand_options=(od,), deadline=30.0)
    h = SpotPriceHistory()
    h.add(g.key, SpotPriceTrace([0.0, 3.0], [0.05, 1.0], 600.0))
    return problem, h


def race_setup():
    """Two groups on flat markets; the 5h group beats the 6h group."""
    g1 = make_group(zone="us-east-1a", exec_time=5.0, overhead=0.5, recovery=0.5)
    g2 = make_group(zone="us-east-1b", exec_time=6.0, overhead=0.5, recovery=0.5)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g1, g2), ondemand_options=(od,), deadline=30.0)
    h = SpotPriceHistory()
    h.add(g1.key, SpotPriceTrace([0.0], [0.05], 600.0))
    h.add(g2.key, SpotPriceTrace([0.0], [0.05], 600.0))
    return problem, h


ONE_GROUP = Decision(groups=(GroupDecision(0, 0.1, 2.0),), ondemand_index=0)
TWO_GROUPS = Decision(
    groups=(GroupDecision(0, 0.1, 2.0), GroupDecision(1, 0.1, 2.0)),
    ondemand_index=0,
)


class TestMetrics:
    def test_counters_and_timers(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.get("a") == 5
        assert m.get("missing") == 0
        with m.timer("t"):
            pass
        with m.timer("t"):
            pass
        assert m.timers["t"].calls == 2
        assert m.timers["t"].seconds >= 0.0

    def test_snapshot_merge_round_trip(self):
        a, b = Metrics(), Metrics()
        a.inc("x", 2)
        a.add_time("t", 1.5)
        b.inc("x", 3)
        b.inc("y")
        b.add_time("t", 0.5)
        a.merge_snapshot(b.snapshot())
        assert a.get("x") == 5
        assert a.get("y") == 1
        assert a.timers["t"].seconds == pytest.approx(2.0)
        assert a.timers["t"].calls == 2

    def test_format_block_and_reset(self):
        m = Metrics()
        assert "(empty)" in m.format_block()
        m.inc("replay.runs", 7)
        m.add_time("plan", 0.25)
        block = m.format_block()
        assert "== metrics ==" in block
        assert "replay.runs" in block and "7" in block
        assert "plan" in block and "1 call" in block
        m.reset()
        assert m.snapshot() == {"counters": {}, "timers": {}}

    def test_library_increments_global_registry(self):
        problem, h = flat_setup()
        before = obs.get_metrics().get("replay.batch_starts")
        replay_decision(problem, ONE_GROUP, h, 0.0)
        assert obs.get_metrics().get("replay.batch_starts") == before + 1


class TestEventStream:
    """What happened to a replayed run — launch, checkpoints, death,
    completion, fallback — read from its group records and ledger."""

    def test_completion_run_tells_the_whole_story(self):
        problem, h = flat_setup(image_gb=45.0)
        result = replay_decision(problem, ONE_GROUP, h, 0.0, account_storage=True)
        (rec,) = result.group_records
        assert rec.launched and rec.launch_time == 0.0
        assert rec.completed and not rec.terminated
        assert result.completed_by == str(problem.groups[0].key)
        writes = checkpoint_write_times(
            problem.groups[0], ONE_GROUP.groups[0].interval, rec
        )
        assert rec.n_checkpoints == 2
        assert len(writes) == 2
        assert rec.launch_time < writes[0] < writes[1] < rec.end_time

    def test_storage_ledger_matches_event_stream(self):
        """GB-hours re-derived from the checkpoint-write timeline must
        equal the storage ledger line."""
        problem, h = flat_setup(image_gb=73.0)
        result = replay_decision(problem, ONE_GROUP, h, 0.0, account_storage=True)
        writes = checkpoint_write_times(
            problem.groups[0], ONE_GROUP.groups[0].interval,
            result.group_records[0],
        )
        assert writes
        run_end = result.start_time + result.makespan
        gb_hours = sum(
            73.0 * (nxt - t)
            for t, nxt in zip(writes, writes[1:] + [run_end])
        )
        expected = gb_hours * 0.03 / 730.0
        (line,) = [i for i in result.ledger.items if i.category == "storage"]
        assert line.dollars == pytest.approx(expected)

    def test_death_and_fallback_events(self):
        problem, h = spike_setup()
        result = replay_decision(problem, ONE_GROUP, h, 0.0)
        assert result.completed_by == "ondemand"
        (rec,) = result.group_records
        assert rec.launched and rec.terminated and not rec.completed
        assert rec.end_time == pytest.approx(3.0)
        (line,) = [i for i in result.ledger.items if i.category == "ondemand"]
        od = problem.ondemand_options[ONE_GROUP.ondemand_index]
        assert result.ondemand_hours > 0.0
        assert line.dollars == pytest.approx(result.ondemand_hours * od.fleet_rate)
        assert line.dollars == result.ledger.total("ondemand")
        # The recovery starts when the last spot group dies.
        od_start = result.start_time + result.makespan - result.ondemand_hours
        assert od_start == pytest.approx(rec.end_time)


class TestAuditRunResult:
    def test_clean_results_pass(self):
        for problem, h in (flat_setup(image_gb=45.0), spike_setup()):
            with obs.audited():
                replay_decision(problem, ONE_GROUP, h, 0.0, account_storage=True)
                replay_decision(problem, ONE_GROUP, h, 0.0, billing=HOURLY)
                replay_batch(problem, ONE_GROUP, h, np.array([0.0, 1.0]))

    def test_cost_drift_raises(self):
        problem, h = flat_setup()
        result = replay_decision(problem, ONE_GROUP, h, 0.0)
        result.cost += 0.25  # a dollar quarter with no ledger line
        with pytest.raises(AuditError, match="cost-conservation"):
            obs.audit_run_result(problem, ONE_GROUP, result)

    def test_unknown_category_raises(self):
        problem, h = flat_setup()
        result = replay_decision(problem, ONE_GROUP, h, 0.0)
        result.ledger.add("misc", "slush fund", 0.0)
        with pytest.raises(AuditError, match="ledger-categories"):
            obs.audit_run_result(problem, ONE_GROUP, result)

    def test_spot_line_mismatch_raises(self):
        problem, h = flat_setup()
        result = replay_decision(problem, ONE_GROUP, h, 0.0)
        item = result.ledger.items[0]
        assert item.category == "spot"
        result.ledger.items[0] = CostItem("spot", item.description, item.dollars + 0.5)
        result.cost += 0.5  # keep conservation green so spot-lines fires
        with pytest.raises(AuditError, match="spot-lines"):
            obs.audit_run_result(problem, ONE_GROUP, result)

    def test_deep_billing_audit_catches_wrong_policy(self):
        """A record billed hourly audited as continuous must fail."""
        # 5.3h of work + 0.5h overheads never sums to whole hours, so
        # the hourly and continuous bills are guaranteed to disagree.
        problem, h = flat_setup(exec_time=5.3)
        result = replay_decision(problem, ONE_GROUP, h, 0.0, billing=HOURLY)
        with pytest.raises(AuditError, match="billing"):
            obs.audit_run_result(
                problem, ONE_GROUP, result, history=h, billing=CONTINUOUS
            )


class TestWinnerRestore:
    def test_winner_record_stays_completed(self):
        """Satellite 3: after the completion-clipped rerun the winning
        group's first-pass record must be restored intact."""
        problem, h = race_setup()
        outcome = replay_one_window(problem, TWO_GROUPS, h, 0.0, 30.0)
        assert outcome.completed
        winner = [
            i
            for i, rec in enumerate(outcome.records)
            if str(rec.key) == outcome.completed_key
        ]
        assert len(winner) == 1
        rec = outcome.records[winner[0]]
        assert rec.completed
        assert rec.end_time == outcome.completion_time
        # The losing group was cut back to the completion instant.
        loser = outcome.records[1 - winner[0]]
        assert not loser.completed
        assert loser.end_time <= outcome.completion_time + 1e-9

    def test_full_replay_reports_completed_winner(self):
        problem, h = race_setup()
        with obs.audited():  # the audit cross-checks completed_by too
            result = replay_decision(problem, TWO_GROUPS, h, 0.0)
        assert result.completed_by == str(problem.groups[0].key)
        assert result.group_records[0].completed


class TestAdaptiveLedger:
    def test_cost_equals_ledger_total(self):
        problem, h = flat_setup(exec_time=5.5)
        ex = AdaptiveExecutor(problem, h, SompiConfig(kappa=1, bid_levels=5))
        res = ex.run(start_time=100.0)
        assert res.completed
        assert res.cost == pytest.approx(res.ledger.total(), abs=1e-9)
        assert res.ledger.total("spot") > 0.0

    def test_billing_policy_is_threaded(self):
        """Satellite 2: hourly-billing adaptive runs must stop silently
        billing continuously (5.3h of work + 0.5h overheads never lands
        on a whole-hour wall, so the hourly bill must come out higher)."""
        problem, h = flat_setup(exec_time=5.3)
        cfg = SompiConfig(kappa=1, bid_levels=5)
        cont = AdaptiveExecutor(problem, h, cfg).run(start_time=100.0)
        hourly = AdaptiveExecutor(problem, h, cfg, billing=HOURLY).run(
            start_time=100.0
        )
        assert hourly.cost > cont.cost
        assert hourly.cost == pytest.approx(hourly.ledger.total(), abs=1e-9)

    def test_storage_accounting_opt_in(self):
        problem, h = flat_setup(image_gb=45.0)
        cfg = SompiConfig(kappa=1, bid_levels=5)
        plain = AdaptiveExecutor(problem, h, cfg).run(start_time=100.0)
        stored = AdaptiveExecutor(problem, h, cfg, account_storage=True).run(
            start_time=100.0
        )
        assert plain.ledger.total("storage") == 0.0
        if stored.ledger.total("storage") > 0.0:
            assert stored.cost > plain.cost
        assert stored.cost == pytest.approx(stored.ledger.total(), abs=1e-9)

    def test_config_audit_flag_runs_clean(self, small_env):
        problem = small_env.problem("BT", 1.5)
        ex = AdaptiveExecutor(problem, small_env.history, small_env.config)
        with obs.audited():
            res = ex.run(start_time=small_env.train_end + 10.0)
        assert res.completed

    def test_deadline_fallback_lands_in_ledger(self, small_env):
        problem = small_env.problem("BT", deadline_hours=1.0)
        ex = AdaptiveExecutor(problem, small_env.history, small_env.config)
        res = ex.run(start_time=small_env.train_end + 10.0)
        assert res.fallback_used
        assert res.ledger.total("ondemand") > 0.0
        assert res.cost == pytest.approx(res.ledger.total(), abs=1e-9)

    def test_corrupted_adaptive_result_raises(self):
        problem, h = flat_setup()
        res = AdaptiveExecutor(problem, h, SompiConfig(kappa=1, bid_levels=5)).run(
            start_time=100.0
        )
        broken = dataclasses.replace(res, cost=res.cost + 1.0)
        with pytest.raises(AuditError, match="adaptive-cost-conservation"):
            obs.audit_adaptive_result(broken)


class TestMonteCarloFixes:
    def test_pure_ondemand_starts_honour_window_and_tmin(self):
        """Satellite 4: on-demand baselines sample from the same
        evaluation period as the hybrid replays they are compared to."""
        problem, h = flat_setup()
        d = Decision(groups=(), ondemand_index=0)
        starts = sample_start_times(
            problem, d, h, 50, np.random.default_rng(0), t_min=100.0
        )
        assert np.all(starts >= 100.0)
        assert np.all(starts <= 600.0)
        assert len(np.unique(starts)) > 1  # actually sampled, not pinned

    def test_pure_ondemand_without_any_trace_pins_to_tmin(self):
        problem, _ = flat_setup()
        d = Decision(groups=(), ondemand_index=0)
        starts = sample_start_times(
            problem, d, SpotPriceHistory(), 5, np.random.default_rng(0), t_min=42.0
        )
        assert np.all(starts == 42.0)

    def test_empty_summary_raises_clearly(self):
        with pytest.raises(ConfigurationError, match="empty result list"):
            MonteCarloSummary.from_results([], deadline=10.0)


class TestBillingEdges:
    def test_refund_at_exact_hour_boundary(self):
        # An interruption exactly on the boundary refunds nothing: every
        # consumed increment is whole.
        assert HOURLY.billable_hours(2.0, interrupted=True) == 2.0
        assert HOURLY.billable_hours(2.0, interrupted=False) == 2.0
        # Just past the boundary the partial increment is free.
        assert HOURLY.billable_hours(2.0 + 1e-9, interrupted=True) == 2.0
        assert HOURLY.billable_hours(2.0 + 1e-9, interrupted=False) == 3.0

    def test_refunded_interruption_of_short_run_is_free(self):
        assert HOURLY.billable_hours(0.25, interrupted=True) == 0.0
        assert HOURLY.billable_hours(0.0, interrupted=True) == 0.0

    def test_continuous_ignores_interruption(self):
        assert CONTINUOUS.billable_hours(2.7, interrupted=True) == 2.7

    def test_ledger_merge_by_category_round_trip(self):
        from repro.cloud.billing import CostLedger

        a, b = CostLedger(), CostLedger()
        a.add("spot", "g1", 1.25)
        a.add("storage", "imgs", 0.5)
        b.add("spot", "g2", 2.0)
        b.add("ondemand", "recovery", 4.0)
        a.merge(b)
        assert a.by_category() == {"spot": 3.25, "storage": 0.5, "ondemand": 4.0}
        assert a.total() == pytest.approx(sum(a.by_category().values()))
        assert [i.description for i in a.items] == ["g1", "imgs", "g2", "recovery"]

    def test_scalar_and_batch_ledger_text_parity_under_audit(self):
        """Satellite 5: audited scalar and batched replays must produce
        the same ledger, line for line, across completion and fallback."""
        problem, h = spike_setup()
        starts = np.array([0.0, 1.0, 2.5, 5.0, 8.0])
        with obs.audited():
            scalar = [
                scalar_replay.replay_decision(problem, ONE_GROUP, h, float(t))
                for t in starts
            ]
            batched = replay_batch(problem, ONE_GROUP, h, starts)
        for a, b in zip(scalar, batched):
            assert [
                (i.category, i.description, i.dollars) for i in a.ledger.items
            ] == [(i.category, i.description, i.dollars) for i in b.ledger.items]
