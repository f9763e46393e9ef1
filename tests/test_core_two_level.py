"""Two-level optimizer and subset search tests."""

import itertools

import numpy as np
import pytest

from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.cost_model import GroupOutcome, evaluate
from repro.core.ondemand_select import select_ondemand
from repro.core.problem import OnDemandOption, Problem
from repro.core.subset import enumerate_subsets, exhaustive_subset_search
from repro.core.two_level import TwoLevelOptimizer, _combo_batches
from repro.errors import ConfigurationError
from repro.market.failure import FailureModel
from repro.market.history import MarketKey
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group


def alternating_trace(cheap=0.05, dear=0.8, period=6.0, hours=240.0):
    times, prices = [], []
    k = 0
    while k * period < hours:
        times += [k * period, k * period + period / 2]
        prices += [cheap, dear]
        k += 1
    return SpotPriceTrace(times, prices, hours + period)


@pytest.fixture
def setup():
    g1 = make_group(zone="us-east-1a", exec_time=8.0, overhead=0.1, recovery=0.1)
    g2 = make_group(zone="us-east-1b", exec_time=8.0, overhead=0.1, recovery=0.1)
    problem = Problem(
        groups=(g1, g2),
        ondemand_options=(OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),),
        deadline=14.0,
    )
    models = {
        g1.key: FailureModel(alternating_trace()),
        g2.key: FailureModel(SpotPriceTrace([0.0], [0.04], 300.0)),
    }
    _, od = select_ondemand(problem.ondemand_options, problem.deadline, 0.2)
    cfg = SompiConfig(kappa=2, bid_levels=5)
    return problem, models, od, cfg


class TestOptimizeSubset:
    def test_result_is_exact_feasible(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        res = opt.optimize_subset((0, 1))
        assert res is not None
        assert res.expectation.time <= problem.deadline + 1e-9

    def test_result_matches_direct_evaluation(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        res = opt.optimize_subset((0, 1))
        outcomes = [
            GroupOutcome.build(
                problem.groups[i], bid, interval, models[problem.groups[i].key], 1.0
            )
            for i, bid, interval in zip(res.group_indices, res.bids, res.intervals)
        ]
        direct = evaluate(outcomes, od)
        assert direct.cost == pytest.approx(res.expectation.cost, rel=1e-9)

    def test_beats_brute_force_over_candidate_grid(self, setup):
        """The vectorised search must find the best candidate combo."""
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        res = opt.optimize_subset((0, 1))
        t0, t1 = opt.group_table(0), opt.group_table(1)
        best = np.inf
        for b0, b1 in itertools.product(range(t0.n_bids), range(t1.n_bids)):
            exp = evaluate([t0.outcomes[b0], t1.outcomes[b1]], od)
            if exp.meets_deadline(problem.deadline):
                best = min(best, exp.cost)
        assert res.expectation.cost == pytest.approx(best, rel=0.02)

    def test_duplicate_subset_rejected(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        with pytest.raises(ConfigurationError):
            opt.optimize_subset((0, 0))

    def test_empty_subset_rejected(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        with pytest.raises(ConfigurationError):
            opt.optimize_subset(())

    def test_missing_model_rejected(self, setup):
        problem, models, od, cfg = setup
        with pytest.raises(ConfigurationError):
            TwoLevelOptimizer(problem, {}, od, cfg)

    def test_infeasible_deadline_returns_none(self, setup):
        problem, models, od, cfg = setup
        tight = Problem(problem.groups, problem.ondemand_options, deadline=0.5)
        opt = TwoLevelOptimizer(tight, models, od, cfg)
        assert opt.optimize_subset((0,)) is None

    def test_combos_counted(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        opt.optimize_subset((0, 1))
        t0, t1 = opt.group_table(0), opt.group_table(1)
        assert opt.combos_evaluated == t0.n_bids * t1.n_bids


class TestSubsetEnumeration:
    def test_sizes_up_to_kappa(self):
        subsets = list(enumerate_subsets(4, 2))
        assert (0,) in subsets and (2, 3) in subsets
        assert len(subsets) == 4 + 6

    def test_kappa_clamped(self):
        assert list(enumerate_subsets(2, 5)) == [(0,), (1,), (0, 1)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            list(enumerate_subsets(0, 1))


class TestSearchStrategies:
    def test_exhaustive_finds_best(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        best = exhaustive_subset_search(opt, kappa=2)
        assert best is not None
        for subset in enumerate_subsets(2, 2):
            res = opt.optimize_subset(subset)
            if res is not None:
                assert best.expectation.cost <= res.expectation.cost + 1e-9

    def test_to_decision_roundtrip(self, setup):
        problem, models, od, cfg = setup
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        res = opt.optimize_subset((1,))
        d = res.to_decision(0)
        assert d.group_indices == (1,)
        assert d.groups[0].bid == res.bids[0]


class TestComboBatches:
    def test_covers_product_space(self):
        batches = list(_combo_batches([3, 4], max_batch=5))
        all_rows = {tuple(r) for b in batches for r in b}
        assert all_rows == set(itertools.product(range(3), range(4)))

    def test_single_batch_fast_path(self):
        (batch,) = list(_combo_batches([2, 2], max_batch=100))
        assert batch.shape == (4, 2)


class TestWarmReplanHashing:
    def test_memory_hits_reuse_their_token(self, setup, tmp_path, monkeypatch):
        """A warm re-plan hashes only its sidecar scope: every group
        table is a memory hit and carries its content token, so no
        group token is re-hashed (the bundle key is only needed on a
        miss)."""
        import repro.core.two_level as two_level

        problem, models, od, cfg = setup
        cfg = cfg.with_(artifact_dir=str(tmp_path))
        two_level.clear_shared_caches()
        cold = TwoLevelOptimizer(problem, models, od, cfg)
        first = cold.optimize_subset((0, 1))
        calls = []
        real = two_level.hash_key

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        monkeypatch.setattr(two_level, "hash_key", counting)
        warm = TwoLevelOptimizer(problem, models, od, cfg)
        assert warm.optimize_subset((0, 1)) == first
        assert len(calls) == 1  # the sidecar scope, not 1 + 2 groups
        assert [t.token for t in warm._tables.values()] == [
            t.token for t in cold._tables.values()
        ]
        two_level.clear_shared_caches()


@pytest.mark.parametrize("cache_name,cap_name", [
    ("_SUBSET_EVAL_CACHE", "_SUBSET_EVAL_CACHE_MAX"),
    ("_EXACT_EVAL_CACHE", "_EXACT_EVAL_CACHE_MAX"),
])
class TestPlannerCacheEviction:
    """A full planner cache evicts only its oldest entries, at every
    fill site: a live search and a sidecar merge alike.  Filling the
    cache to its cap and then adding k entries leaves exactly cap
    entries, the newest k among them."""

    @staticmethod
    def _keys_added(cache_name, run):
        import repro.core.two_level as two_level

        two_level.clear_shared_caches()
        run()
        added = list(getattr(two_level, cache_name))
        assert added
        return added

    @staticmethod
    def _check_eviction(monkeypatch, cache_name, cap_name, run, added):
        import repro.core.two_level as two_level

        two_level.clear_shared_caches()
        cap = len(added) + 2
        monkeypatch.setattr(two_level, cap_name, cap)
        cache = getattr(two_level, cache_name)
        old = [("old", i) for i in range(cap)]
        for key in old:
            cache[key] = None
        run()
        assert list(cache) == old[-2:] + added
        two_level.clear_shared_caches()

    def test_live_search(self, setup, tmp_path, monkeypatch,
                         cache_name, cap_name):
        problem, models, od, cfg = setup
        cfg = cfg.with_(artifact_dir=str(tmp_path))

        def run():
            TwoLevelOptimizer(problem, models, od, cfg).optimize_subset((0, 1))

        added = self._keys_added(cache_name, run)
        self._check_eviction(monkeypatch, cache_name, cap_name, run, added)

    def test_sidecar_merge(self, setup, tmp_path, monkeypatch,
                           cache_name, cap_name):
        import repro.core.two_level as two_level

        problem, models, od, cfg = setup
        cfg = cfg.with_(artifact_dir=str(tmp_path))
        two_level.clear_shared_caches()
        planner = TwoLevelOptimizer(problem, models, od, cfg)
        planner.optimize_subset((0, 1))
        planner.save_search_sidecar()

        def run():  # building the tables merges the saved sidecar
            TwoLevelOptimizer(problem, models, od, cfg).group_table(0)

        added = self._keys_added(cache_name, run)
        self._check_eviction(monkeypatch, cache_name, cap_name, run, added)
