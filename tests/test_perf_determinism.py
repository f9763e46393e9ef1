"""Determinism regression tests for the performance layer.

The caches, the pruned subset search and the batched replay are all
claimed to be *bit-identical* to the seed implementation paths.  These tests hold that claim down:

* cold-cache vs warm-cache planning → identical plans,
* pruned vs unpruned subset search → identical winner and counts,
* batched replay vs the scalar oracle → identical RunResults field by
  field,
* observability (tracing + audit) on vs off → identical RunResults.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.optimizer import SompiOptimizer, build_failure_models
from repro.core.subset import exhaustive_subset_search
from repro.core.two_level import TwoLevelOptimizer, clear_shared_caches
from repro.execution.artifacts import ARTIFACT_DIR_ENV
from repro.execution.batch_replay import replay_batch
from repro.execution.montecarlo import sample_start_times
from repro.execution.replay import replay_decision
from repro.experiments.env import ExperimentEnv
from tests.oracles import scalar_replay


@pytest.fixture(scope="module")
def env():
    return ExperimentEnv.paper_default()


@pytest.fixture(scope="module")
def planned(env):
    problem = env.problem("BT", deadline_factor=1.5)
    plan = env.sompi_plan(problem)
    assert plan.decision.groups, "expected a spot-using plan"
    return problem, plan


class TestCachedPlanningIdentical:
    def test_cache_off_matches_cache_on(self, env, monkeypatch, tmp_path):
        """Every cache tier cold (fresh failure models, shared caches
        cleared, disk tier off) plans exactly what warm tiers serve."""
        problem = env.problem("SP", deadline_factor=1.05)
        monkeypatch.setenv(ARTIFACT_DIR_ENV, "")
        clear_shared_caches()
        cold = SompiOptimizer(
            problem,
            build_failure_models(problem, env.training_history()),
            env.config,
        ).plan()
        # Warm: prime memory and a private store, then re-plan over the
        # same (memo-filled) failure models.
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
        clear_shared_caches()
        models = build_failure_models(problem, env.training_history())
        SompiOptimizer(problem, models, env.config).plan()
        hits = obs.get_metrics().get("cache.subset_hits")
        hot = SompiOptimizer(problem, models, env.config).plan()
        assert obs.get_metrics().get("cache.subset_hits") > hits
        assert hot.expectation == cold.expectation
        assert hot.decision == cold.decision
        assert hot.combos_evaluated == cold.combos_evaluated
        clear_shared_caches()

    def test_second_plan_served_from_cache_is_identical(self, env):
        problem = env.problem("SP", deadline_factor=1.05)
        models = build_failure_models(problem, env.training_history())
        clear_shared_caches()
        first = SompiOptimizer(problem, models, env.config).plan()
        again = SompiOptimizer(problem, models, env.config).plan()
        assert first.expectation == again.expectation
        assert first.decision == again.decision


class TestPrunedSearchIdentical:
    def test_pruned_and_unpruned_traversals_agree(self, env):
        problem = env.problem("FT", deadline_factor=1.5)
        models = build_failure_models(problem, env.training_history())
        ondemand = problem.ondemand_options[0]
        clear_shared_caches()
        pruned_opt = TwoLevelOptimizer(problem, models, ondemand, env.config)
        pruned = exhaustive_subset_search(pruned_opt, kappa=2)
        # The same traversal with pruning defeated: never pass a bound.
        plain_opt = TwoLevelOptimizer(problem, models, ondemand, env.config)
        best = None
        from repro.core.subset import enumerate_subsets

        for subset in enumerate_subsets(problem.n_groups, 2):
            result = plain_opt.optimize_subset(subset)
            if result is None:
                continue
            if best is None or result.expectation.cost < best.expectation.cost:
                best = result
        assert pruned is not None and best is not None
        assert pruned.bids == best.bids
        assert pruned.expectation == best.expectation
        assert pruned_opt.combos_evaluated == plain_opt.combos_evaluated
        assert pruned_opt.subsets_pruned > 0  # the bound actually fired


class TestBatchedReplayIdentical:
    def test_batch_matches_scalar_field_by_field(self, env, planned):
        problem, plan = planned
        starts = sample_start_times(
            problem, plan.decision, env.history, 120,
            env.rng.fresh("det-batch"), t_min=env.train_end,
        )
        scalar = [
            scalar_replay.replay_decision(
                problem, plan.decision, env.history, float(t)
            )
            for t in starts
        ]
        batched = replay_batch(problem, plan.decision, env.history, starts)
        assert len(scalar) == len(batched)
        for a, b in zip(scalar, batched):
            assert a.start_time == b.start_time
            assert a.cost == b.cost
            assert a.makespan == b.makespan
            assert a.completed_by == b.completed_by
            assert a.ondemand_hours == b.ondemand_hours
            assert [
                (i.category, i.description, i.dollars) for i in a.ledger.items
            ] == [
                (i.category, i.description, i.dollars) for i in b.ledger.items
            ]
            for ra, rb in zip(a.group_records, b.group_records):
                assert ra == rb


class TestObservabilityTransparent:
    def test_observability_off_is_bit_identical(self, env, planned):
        """The repro.obs layer observes results on the way out; it must
        never perturb them.  Replays with audit on are compared field by
        field against plain replays (DESIGN.md §7)."""
        problem, plan = planned
        starts = sample_start_times(
            problem, plan.decision, env.history, 60,
            env.rng.fresh("det-obs"), t_min=env.train_end,
        )
        plain = [
            replay_decision(problem, plan.decision, env.history, float(t))
            for t in starts
        ]
        with obs.audited():
            observed = [
                replay_decision(problem, plan.decision, env.history, float(t))
                for t in starts
            ]
            observed_batch = replay_batch(
                problem, plan.decision, env.history, starts
            )
        for a, b, c in zip(plain, observed, observed_batch):
            for other in (b, c):
                assert a.start_time == other.start_time
                assert a.cost == other.cost
                assert a.makespan == other.makespan
                assert a.completed_by == other.completed_by
                assert a.ondemand_hours == other.ondemand_hours
                assert tuple(a.group_records) == tuple(other.group_records)
                assert [
                    (i.category, i.description, i.dollars)
                    for i in a.ledger.items
                ] == [
                    (i.category, i.description, i.dollars)
                    for i in other.ledger.items
                ]
