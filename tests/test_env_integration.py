"""ExperimentEnv and cross-module integration tests."""

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.errors import ConfigurationError
from repro.experiments.env import (
    ExperimentEnv,
    LOOSE_DEADLINE_FACTOR,
    TIGHT_DEADLINE_FACTOR,
)
from repro.experiments.fig8_fault_tolerance import drifting_history, risky_env


class TestEnvConstruction:
    def test_paper_default_markets(self, paper_env):
        assert len(paper_env.history) == 12
        assert paper_env.train_end == 14 * 24.0

    def test_train_days_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentEnv.paper_default(history_days=7.0, train_days=7.0)

    def test_training_history_is_prefix(self, paper_env):
        training = paper_env.training_history()
        for key, trace in training.items():
            assert trace.end_time == paper_env.train_end
            full = paper_env.history.get(key)
            assert trace.start_time == full.start_time

    def test_reproducible_given_seed(self):
        a = ExperimentEnv.paper_default(seed=5, history_days=16, train_days=7)
        b = ExperimentEnv.paper_default(seed=5, history_days=16, train_days=7)
        for key, trace in a.history.items():
            assert b.history.get(key) == trace


class TestProblemConstruction:
    def test_groups_cover_types_times_zones(self, paper_env):
        problem = paper_env.problem("BT")
        assert problem.n_groups == 12
        assert len(problem.ondemand_options) == 4

    def test_deadline_relative_to_baseline(self, paper_env):
        app = paper_env.app("BT")
        problem = paper_env.problem(app, TIGHT_DEADLINE_FACTOR)
        assert problem.deadline == pytest.approx(
            TIGHT_DEADLINE_FACTOR * paper_env.baseline_time(app)
        )

    def test_deadline_override(self, paper_env):
        problem = paper_env.problem("BT", deadline_hours=99.0)
        assert problem.deadline == 99.0

    def test_group_parameters_consistent(self, paper_env):
        problem = paper_env.problem("FT")
        for g in problem.groups:
            assert g.itype.name == g.key.instance_type
            assert g.checkpoint_overhead > 0
            assert g.recovery_overhead > g.checkpoint_overhead
            # one process per core
            assert g.n_instances * g.itype.vcpus >= 128

    def test_baseline_is_min_over_types(self, paper_env):
        app = paper_env.app("IS")
        times = [paper_env.exec_time(app, t) for t in paper_env.instance_types]
        assert paper_env.baseline_time(app) == pytest.approx(min(times))


class TestModelCaching:
    def test_failure_models_cached(self, paper_env):
        problem = paper_env.problem("BT")
        a = paper_env.failure_models(problem)
        b = paper_env.failure_models(problem)
        assert a is b

    def test_expectation_matches_plan(self, paper_env):
        problem = paper_env.problem("BT", LOOSE_DEADLINE_FACTOR)
        plan = paper_env.sompi_plan(problem)
        exp = paper_env.expectation(problem, plan.decision)
        assert exp.cost == pytest.approx(plan.expectation.cost, rel=1e-9)

    def test_expectation_of_empty_decision(self, paper_env):
        from repro.baselines import ondemand_decision

        problem = paper_env.problem("BT")
        exp = paper_env.expectation(problem, ondemand_decision(problem))
        od = problem.ondemand_options
        assert exp.cost == pytest.approx(
            min(o.full_run_cost for o in od if o.exec_time <= problem.deadline)
        )


class TestFig8Environments:
    def test_risky_env_markets_fail_regularly(self, paper_env):
        risky = risky_env(paper_env)
        from repro.market.failure import FailureModel

        # in every market, a low bid dies within two days with high prob
        for key, trace in risky.history.items():
            fm = FailureModel(trace.slice(0.0, risky.train_end))
            low_bid = fm.min_price() * 1.5
            pmf = fm.failure_pmf(low_bid, 48)
            assert pmf[:-1].sum() > 0.3

    def test_drifting_history_boundary(self, paper_env):
        drift_at = paper_env.train_end + 10.0
        drift = drifting_history(paper_env, drift_at=drift_at)
        for key, trace in paper_env.history.items():
            drifted = drift.get(key)
            # identical before the boundary
            assert drifted.slice(0.0, drift_at) == trace.slice(0.0, drift_at)
            assert drifted.end_time == pytest.approx(trace.end_time)

    def test_drift_inflates_requested_keys(self, paper_env):
        from repro.market.history import MarketKey

        key = MarketKey("cc2.8xlarge", "us-east-1b")
        drift_at = paper_env.train_end
        drift = drifting_history(
            paper_env, drift_at=drift_at, inflate_keys={key}, inflation=3.0
        )
        before = paper_env.history.get(key).slice(drift_at, drift_at + 100.0)
        after = drift.get(key).slice(drift_at, drift_at + 100.0)
        assert after.mean_price() > 1.5 * before.mean_price()


class TestEndToEndScenarios:
    def test_full_pipeline_is_deterministic(self, small_env):
        problem = small_env.problem("FT", LOOSE_DEADLINE_FACTOR)
        p1 = small_env.sompi_plan(problem)
        p2 = small_env.sompi_plan(problem)
        assert p1.decision == p2.decision
        mc1 = small_env.mc(problem, p1.decision, 30, "det")
        mc2 = small_env.mc(problem, p2.decision, 30, "det")
        assert mc1 == mc2

    def test_storage_cost_negligible(self, paper_env):
        """The paper's S3 claim: checkpoint storage < 0.1% of the bill."""
        from repro.mpi.timing import estimate_checkpoint
        from repro.units import BYTES_PER_GB

        app = paper_env.app("BT")
        profile = app.profile()
        itype = get_instance_type("m1.medium")
        ckpt = estimate_checkpoint(profile, itype, paper_env.storage)
        # one image live for the whole 18h run at $0.03/GB-month (730 h),
        # the price checkpoint_storage_cost bills
        storage_cost = ckpt.image_bytes / BYTES_PER_GB * 18.25 * 0.03 / 730.0
        spot_bill = 18.25 * itype.ondemand_price * 128 * 0.10  # ~spot rate
        # ~0.2% of the (very cheap) spot bill, ~0.02% of the baseline
        # on-demand bill the paper normalises against.
        assert storage_cost / spot_bill < 0.002
        assert storage_cost / paper_env.baseline_cost(app) < 0.001

    def test_tight_deadline_prefers_faster_types(self, paper_env):
        tight = paper_env.sompi_plan(paper_env.problem("BT", TIGHT_DEADLINE_FACTOR))
        loose = paper_env.sompi_plan(paper_env.problem("BT", 3.5))
        tight_speed = max(
            paper_env.problem("BT").groups[g.group_index].itype.total_speed
            for g in tight.decision.groups
        )
        loose_speed = max(
            paper_env.problem("BT").groups[g.group_index].itype.total_speed
            for g in loose.decision.groups
        )
        assert tight_speed >= loose_speed

    def test_seed_sweep_keeps_headline_result(self):
        """SOMPI beats on-demand across seeds, not just seed 7."""
        from repro.baselines import ondemand_decision

        for seed in (1, 2):
            env = ExperimentEnv.paper_default(
                seed=seed, history_days=21, train_days=10
            )
            problem = env.problem("BT", LOOSE_DEADLINE_FACTOR)
            plan = env.sompi_plan(problem)
            mc = env.mc(problem, plan.decision, 60, f"seed{seed}")
            od = env.expectation(problem, ondemand_decision(problem))
            assert mc.mean_cost < od.cost
