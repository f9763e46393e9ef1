"""Streaming `_combo_batches` coverage: the batched enumeration must be
the full product space, in product order, and batched subset
optimisation must pick the same winner as the single-batch path."""

import itertools

import numpy as np
import pytest

import repro.core.two_level as two_level
from repro.cloud.instance_types import get_instance_type
from repro.config import SompiConfig
from repro.core.problem import OnDemandOption, Problem
from repro.core.ondemand_select import select_ondemand
from repro.core.two_level import TwoLevelOptimizer, _combo_batches, clear_shared_caches
from repro.market.failure import FailureModel
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


class TestComboBatchEnumeration:
    @pytest.mark.parametrize("sizes,max_batch", [
        ([3, 4, 2], 5),      # streaming, ragged final batch
        ([5, 5], 7),         # streaming, 2-d
        ([2, 2, 2, 2], 16),  # exactly one batch
        ([6], 4),            # 1-d streaming
    ])
    def test_union_is_full_product_space(self, sizes, max_batch):
        batches = list(_combo_batches(sizes, max_batch))
        for b in batches:
            assert b.shape[1] == len(sizes)
            assert len(b) <= max_batch
        stacked = np.concatenate(batches, axis=0)
        expected = np.array(list(itertools.product(*[range(s) for s in sizes])))
        # Same rows, same (row-major) order, nothing missing or repeated.
        assert stacked.shape == expected.shape
        assert np.array_equal(stacked, expected)

    def test_streaming_matches_single_batch(self):
        sizes = [4, 3, 3]
        one = np.concatenate(list(_combo_batches(sizes, 10_000)))
        many = np.concatenate(list(_combo_batches(sizes, 7)))
        assert np.array_equal(one, many)


@pytest.fixture
def setup():
    g1 = make_group(zone="us-east-1a", exec_time=8.0, overhead=0.1, recovery=0.1)
    g2 = make_group(zone="us-east-1b", exec_time=8.0, overhead=0.1, recovery=0.1)
    g3 = make_group(zone="us-east-1c", exec_time=8.0, overhead=0.1, recovery=0.1)
    problem = Problem(
        groups=(g1, g2, g3),
        ondemand_options=(OnDemandOption(get_instance_type("c3.xlarge"), 8, 7.0),),
        deadline=14.0,
    )
    models = {
        g1.key: FailureModel(alternating_trace()),
        g2.key: FailureModel(SpotPriceTrace([0.0], [0.04], 300.0)),
        g3.key: FailureModel(alternating_trace(cheap=0.03, dear=1.2, period=9.0)),
    }
    _, od = select_ondemand(problem.ondemand_options, problem.deadline, 0.2)
    cfg = SompiConfig(kappa=3, bid_levels=5)
    return problem, models, od, cfg


class TestBatchedOptimizationEquivalence:
    def test_streaming_path_picks_same_winner(self, setup, monkeypatch):
        """Force `total > _MAX_BATCH` so optimize_subset streams, and
        compare against the single-batch evaluation of the same subset."""
        problem, models, od, cfg = setup
        clear_shared_caches()
        single = TwoLevelOptimizer(problem, models, od, cfg).optimize_subset(
            (0, 1, 2)
        )
        # (bid_levels + 1)^3 = 216 combos; a cap of 50 forces 5 batches.
        monkeypatch.setattr(two_level, "_MAX_BATCH", 50)
        clear_shared_caches()
        streamed = TwoLevelOptimizer(problem, models, od, cfg).optimize_subset(
            (0, 1, 2)
        )
        clear_shared_caches()
        assert single is not None and streamed is not None
        assert streamed.bids == single.bids
        assert streamed.intervals == single.intervals
        assert streamed.expectation == single.expectation
        assert streamed.combos_evaluated == single.combos_evaluated


def duplicated_table(table, token):
    """``table`` with every bid row repeated, so combos tie on cost."""
    rows = np.repeat(np.arange(table.n_bids), 2)
    return two_level._GroupTable(
        group_index=table.group_index,
        bids=table.bids[rows],
        intervals=table.intervals[rows],
        outcomes=[table.outcomes[r] for r in rows],
        e_spot=table.e_spot[rows],
        e_ratio=table.e_ratio[rows],
        surv_ratio=table.surv_ratio[rows],
        surv_wall=table.surv_wall[rows],
        below_wall=table.below_wall[rows],
        token=token,
    )


class TestExactFallbackOrder:
    """Candidates reach the exact re-evaluation in the order a stable
    sort by approximate cost gives after each batch's argpartition —
    ties included, single-batch and streamed alike."""

    @pytest.mark.parametrize("max_batch", [None, 50])
    def test_tied_candidates_keep_reference_order(
        self, setup, monkeypatch, max_batch
    ):
        problem, models, od, cfg = setup
        clear_shared_caches()
        if max_batch is not None:
            monkeypatch.setattr(two_level, "_MAX_BATCH", max_batch)
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        opt._build_tables()
        for i in range(3):
            opt._tables[i] = duplicated_table(opt._tables[i], f"dup{i}")
        tables = [opt._tables[i] for i in range(3)]
        sizes = [t.n_bids for t in tables]
        total = int(np.prod(sizes))
        limit = problem.deadline * 1.02 + 1e-9
        tries = two_level._EXACT_FALLBACK_TRIES

        reference = []
        n_batches = 0
        for batch, cost, time in opt._scored_batches(tables, sizes, total, None):
            n_batches += 1
            feasible = np.flatnonzero(time <= limit)
            if feasible.size > tries:
                top = np.argpartition(cost[feasible], tries)
                feasible = feasible[top[:tries]]
            reference += [(float(cost[c]), tuple(batch[c])) for c in feasible]
        reference.sort(key=lambda item: item[0])
        costs = [c for c, _ in reference[:tries]]
        assert n_batches == (1 if max_batch is None else -(-total // max_batch))
        assert len(set(costs)) < len(costs)  # the cut holds real ties

        seen = []
        infeasible = two_level.Expectation(*([float("inf")] * 7))

        def record(self, tables, combo, outcomes):
            seen.append(combo)
            return infeasible

        monkeypatch.setattr(TwoLevelOptimizer, "_evaluate_exact", record)
        assert opt.optimize_subset((0, 1, 2)) is None
        assert seen == [combo for _, combo in reference[:tries]]
        clear_shared_caches()
