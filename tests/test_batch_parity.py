"""Bit-identity of the batched kernels against their scalar references.

The kernel layer's hard contract (DESIGN.md §8) is that every batched
path — single-shot and persistent spot semantics, hourly billing,
checkpoint-storage accounting, the adaptive executor's window batching,
and the event-level trace sampler — performs the identical IEEE
operations in the identical order as the scalar code it replaced.
The scalar side is the sequential original, kept as a test-only
oracle under ``tests/oracles``.
These tests drive both sides on spiky generated markets and demand
*exact* float equality (no tolerances anywhere), across multiple seeds
and both billing policies, with the audit invariants switched on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from repro import obs
from repro.cloud.billing import CONTINUOUS, HOURLY, BillingPolicy
from repro.cloud.instance_types import get_instance_type
from repro.core.bid_search import log_bid_candidates
from repro.core.cost_model import GroupOutcome
from repro.core.grid_eval import (
    bid_matrix_rows,
    extend_products,
    extend_score_sums,
    optimal_interval_grid,
    outcome_grid,
)
from repro.core.interval import (
    _interval_candidates,
    optimal_interval,
    young_interval,
)
from repro.core.problem import Decision, GroupDecision, OnDemandOption, Problem
from repro.core.two_level import clear_shared_caches
from repro.errors import TraceError
from repro.execution.adaptive import AdaptiveExecutor
from repro.execution.batch_replay import replay_batch, replay_window_batch
from repro.execution.montecarlo import sample_start_times
from repro.market.failure import FailureModel
from repro.market.generator import RegimeSwitchingGenerator, SpotMarketParams
from repro.market.history import MarketKey, SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from repro.units import BYTES_PER_GB
from tests.conftest import make_group
from tests.oracles.market_generator import sample_grid_reference
from tests.oracles.scalar_replay import replay_decision, replay_window
from tests.oracles.subset_scores import (
    prefix_products as prefix_products_oracle,
)
from tests.oracles.subset_scores import (
    subset_score_sums as subset_scores_oracle,
)

SEEDS = (3, 17, 91)

_SPIKY = SpotMarketParams(
    base_price=0.05,
    calm_volatility=0.08,
    calm_change_rate=1.5,
    spike_rate=0.12,
    spike_magnitude=8.0,
    spike_duration_mean=0.8,
)
_CALMER = SpotMarketParams(
    base_price=0.04,
    calm_change_rate=0.8,
    spike_rate=0.05,
    spike_duration_mean=1.5,
)


def spiky_setup(seed, image_gb=2.0):
    """Two groups on generated spiky markets (deaths + relaunches)."""
    g1 = make_group(exec_time=6.0, overhead=0.4, recovery=0.5, n_instances=2)
    g2 = dataclasses.replace(
        make_group(zone="us-east-1b", exec_time=6.0, overhead=0.3,
                   recovery=0.4, n_instances=2),
        image_bytes=image_gb * BYTES_PER_GB,
    )
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g1, g2), ondemand_options=(od,), deadline=40.0)
    h = SpotPriceHistory()
    for key, params, sub in ((g1.key, _SPIKY, 0), (g2.key, _CALMER, 1)):
        gen = RegimeSwitchingGenerator(
            params, np.random.default_rng(1000 * seed + sub)
        )
        h.add(key, gen.generate(400.0))
    decision = Decision(
        groups=(GroupDecision(0, 0.075, 2.0), GroupDecision(1, 0.06, 1.5)),
        ondemand_index=0,
    )
    return problem, decision, h


def assert_runs_equal(a, b, ctx=""):
    assert (a.start_time, a.cost, a.makespan, a.completed_by,
            a.ondemand_hours) == (
        b.start_time, b.cost, b.makespan, b.completed_by, b.ondemand_hours
    ), ctx
    assert tuple(a.group_records) == tuple(b.group_records), ctx
    assert a.ledger.items == b.ledger.items, ctx


class TestReplayBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("billing", [CONTINUOUS, HOURLY],
                             ids=["continuous", "hourly"])
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    @pytest.mark.parametrize("account_storage", [False, True],
                             ids=["nostorage", "storage"])
    def test_batch_matches_scalar(self, seed, billing, semantics,
                                  account_storage):
        problem, decision, h = spiky_setup(seed)
        starts = sample_start_times(
            problem, decision, h, 12, np.random.default_rng(seed)
        )
        scalar = [
            replay_decision(
                problem, decision, h, float(t), semantics=semantics,
                billing=billing, account_storage=account_storage,
            )
            for t in starts
        ]
        batch = replay_batch(
            problem, decision, h, starts, semantics=semantics,
            billing=billing, account_storage=account_storage,
        )
        assert len(batch) == len(scalar)
        for a, b in zip(scalar, batch):
            assert_runs_equal(a, b, f"{seed}/{billing}/{semantics}")

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["single-shot", "persistent"])
    def test_window_batch_matches_scalar(self, seed, persistent):
        problem, decision, h = spiky_setup(seed)
        t0s = np.random.default_rng(seed).uniform(0.0, 350.0, 8)
        outcomes = replay_window_batch(
            problem, decision, h, t0s, t0s + 20.0, persistent=persistent
        )
        for t0, got in zip(t0s, outcomes):
            want = replay_window(
                problem, decision, h, float(t0), float(t0) + 20.0,
                persistent=persistent,
            )
            assert got == want

    def test_audit_invariants_hold_on_batch_paths(self):
        problem, decision, h = spiky_setup(SEEDS[0])
        starts = sample_start_times(
            problem, decision, h, 10, np.random.default_rng(0)
        )
        with obs.audited():
            for semantics in ("single-shot", "persistent"):
                for billing in (CONTINUOUS, HOURLY):
                    replay_batch(
                        problem, decision, h, starts, semantics=semantics,
                        billing=billing, account_storage=True,
                    )


class TestAdaptiveBatchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_run_many_matches_fresh_executors(self, seed, semantics,
                                              small_env):
        problem, decision, h = spiky_setup(seed)
        cfg = small_env.config.with_(window_hours=8.0)
        starts = [80.0 + 7.0 * i for i in range(4)]
        batched = AdaptiveExecutor(
            problem, h, cfg, semantics=semantics, account_storage=True
        ).run_many(starts)
        for t0, got in zip(starts, batched):
            want = AdaptiveExecutor(
                problem, h, cfg, semantics=semantics, account_storage=True
            ).run(t0)
            assert (got.cost, got.makespan, got.completed,
                    got.fallback_used) == (
                want.cost, want.makespan, want.completed, want.fallback_used
            )
            assert got.windows == want.windows
            assert got.ledger.items == want.ledger.items

    def test_run_many_audited(self, small_env):
        problem, decision, h = spiky_setup(SEEDS[1])
        cfg = small_env.config.with_(window_hours=8.0)
        with obs.audited():
            results = AdaptiveExecutor(problem, h, cfg).run_many(
                [60.0, 120.0, 200.0]
            )
        assert len(results) == 3


class TestGeneratorParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("params", [
        _SPIKY,
        _CALMER,
        SpotMarketParams(base_price=0.07, spike_rate=0.0),
        SpotMarketParams(base_price=0.07, calm_change_rate=0.0),
        SpotMarketParams(base_price=0.05, spike_rate=2.0,
                         spike_duration_mean=0.05, calm_volatility=0.2),
    ], ids=["spiky", "calmer", "no-spikes", "no-changes", "dense-spikes"])
    def test_event_level_sampler_byte_identical(self, seed, params):
        for n in (1, 3, 500, 6000):
            vec = RegimeSwitchingGenerator(
                params, np.random.default_rng(seed)
            )._sample_grid(n)
            ref = sample_grid_reference(
                params, np.random.default_rng(seed), n
            )
            assert vec.tobytes() == ref.tobytes()


class TestCorrelatedParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sample_surges_matches_scalar_reference(self, seed):
        from repro.market.correlated import RegionSurge, sample_surges

        def reference(duration_hours, rng):
            n = rng.poisson(0.05 * duration_hours)
            surges = []
            for _ in range(n):
                start = float(rng.uniform(0.0, duration_hours))
                dur = float(max(0.25, rng.exponential(3.0)))
                severity = float(8.0 * np.exp(0.5 * rng.standard_normal()))
                surges.append(
                    RegionSurge(start, min(dur, duration_hours - start),
                                severity)
                )
            surges.sort(key=lambda s: s.start)
            return surges

        got = sample_surges(
            600.0, np.random.default_rng(seed), rate_per_hour=0.05
        )
        want = reference(600.0, np.random.default_rng(seed))
        assert got == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_overlay_floor_matches_scalar_reference(self, seed):
        from repro.market.correlated import overlay_price_floor

        r = np.random.default_rng(seed)
        t = np.sort(r.uniform(0.0, 100.0, 30))
        t[0] = 0.0
        trace = SpotPriceTrace(t, r.uniform(0.01, 1.0, 30), 100.0)
        for s, e, f in [(10.0, 25.0, 0.6), (-5.0, 4.0, 0.3),
                        (90.0, 150.0, 2.0), (0.0, 100.0, 0.5),
                        (float(t[4]), float(t[9]), 0.8)]:
            got = overlay_price_floor(trace, s, e, f)
            lo, hi = max(s, 0.0), min(e, 100.0)
            times = list(trace.times)
            prices = list(trace.prices)
            for cut in (lo, hi):
                if cut < trace.end_time and cut not in times:
                    idx = int(np.searchsorted(times, cut, side="right") - 1)
                    times.insert(idx + 1, cut)
                    prices.insert(idx + 1, prices[idx])
            want_p = [max(p, f) if lo <= tt < hi else p
                      for tt, p in zip(times, prices)]
            keep = [0] + [
                k for k in range(1, len(times)) if want_p[k] != want_p[k - 1]
            ]
            assert got.times.tolist() == [times[k] for k in keep]
            assert got.prices.tolist() == [want_p[k] for k in keep]
            assert got.end_time == trace.end_time


class TestKernelOracleParity:
    """Each KERNEL_ORACLES entry exercised directly against its scalar.

    These are the function-level parity checks tests/test_kernel_oracles.py
    demands: every vectorized kernel is driven side by side with the
    scalar reference it declares, with exact float equality.
    """

    def _trace(self, seed, duration=120.0):
        return RegimeSwitchingGenerator(
            _SPIKY, np.random.default_rng(seed)
        ).generate(duration)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trace_tables_match_scalar_launch_and_death(self, seed):
        """Launch and death times resolved through the (trace, bid)
        tables, the way the replay kernels resolve them, equal the
        scalar suffix scans; the ``+inf`` sentinel stands for ``None``."""
        from repro.cloud.spot import first_at_or_below, first_exceedance
        from repro.execution.kernels import trace_tables

        trace = self._trace(seed)
        prices, n = trace.prices, trace.prices.size
        r = np.random.default_rng(seed + 6)
        t0 = r.uniform(trace.start_time, trace.end_time, 200)
        t0[:5] = trace.times[:5]  # queries exactly at change points
        bids = [prices.min(), prices.max(),
                *np.quantile(prices, [0.1, 0.5, 0.9])]
        for bid in bids:
            tb = trace_tables(trace, bid)
            k = np.searchsorted(tb.times, t0, side="right") - 1
            below_k = tb.below[k]
            seg = np.where(below_k, k, tb.nxt_below_ext[np.minimum(k + 1, n)])
            launch = np.where(below_k, t0, tb.times_ext[seg])
            death = tb.times_ext[tb.nxt_above_ext[np.minimum(seg + 1, n)]]
            for i in range(t0.size):
                want = first_at_or_below(trace, bid, t0[i])
                assert launch[i] == (np.inf if want is None else want), i
                if want is not None:
                    gone = first_exceedance(trace, bid, want)
                    assert death[i] == (np.inf if gone is None else gone), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_integrate_price_fast_bitwise_equal(self, seed):
        """Continuous billing is the price integral, window by window."""
        from repro.cloud.spot import integrate_price
        from repro.execution.kernels import billed_cost_batch

        trace = self._trace(seed)
        r = np.random.default_rng(seed + 1)
        t0, t1 = np.sort(r.uniform(0.0, trace.end_time, (2, 50)), axis=0)
        got = billed_cost_batch(trace, t0, t1, np.zeros(50, bool), CONTINUOUS)
        for i in range(50):
            assert got[i] == integrate_price(trace, t0[i], t1[i]), i
        assert billed_cost_batch(
            trace, np.array([3.0]), np.array([3.0]), [False], CONTINUOUS
        ).tolist() == [0.0]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("policy", [CONTINUOUS, HOURLY])
    @pytest.mark.parametrize("interrupted", [False, True])
    def test_billed_cost_fast_matches_billed_spot_cost(
        self, seed, policy, interrupted
    ):
        from repro.cloud.spot import billed_spot_cost
        from repro.execution.kernels import billed_cost_batch

        trace = self._trace(seed)
        r = np.random.default_rng(seed + 2)
        launch, end = np.sort(r.uniform(0.0, trace.end_time, (2, 25)), axis=0)
        got = billed_cost_batch(
            trace, launch, end, np.full(25, interrupted), policy
        )
        for i in range(25):
            assert got[i] == billed_spot_cost(
                trace, launch[i], end[i], interrupted, policy
            ), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoints_completed_arr_elementwise(self, seed):
        from repro.core.ckpt_math import checkpoints_completed
        from repro.execution.kernels import checkpoints_completed_arr

        r = np.random.default_rng(seed + 3)
        exec_time = r.uniform(1.0, 12.0, 200)
        interval = r.uniform(0.2, 1.0, 200) * exec_time
        productive = r.uniform(0.0, 1.0, 200) * exec_time
        # Exact multiples stress the at-the-finish-line decrement loop.
        productive[::7] = exec_time[::7]
        interval[::11] = exec_time[::11]
        got = checkpoints_completed_arr(productive, exec_time, interval)
        for i in range(200):
            want = checkpoints_completed(
                float(productive[i]), float(exec_time[i]), float(interval[i])
            )
            assert got[i] == float(want), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_total_wall_arr_elementwise(self, seed):
        from repro.core.ckpt_math import total_wall
        from repro.execution.kernels import total_wall_arr

        r = np.random.default_rng(seed + 4)
        exec_time = r.uniform(1.0, 12.0, 100)
        interval = r.uniform(0.2, 1.2, 100) * exec_time
        overhead = 0.35
        got = total_wall_arr(exec_time, interval, overhead)
        for i in range(100):
            assert got[i] == total_wall(
                float(exec_time[i]), float(interval[i]), overhead
            ), i

    @pytest.mark.parametrize("seed", SEEDS)
    def test_progress_after_wall_arr_elementwise(self, seed):
        from repro.core.ckpt_math import (
            checkpoints_completed,
            progress_after_wall,
            total_wall,
        )
        from repro.execution.kernels import progress_after_wall_arr

        r = np.random.default_rng(seed + 5)
        n = 150
        exec_time = r.uniform(1.0, 10.0, n)
        interval = r.uniform(0.2, 1.0, n) * exec_time
        overhead = 0.25
        done_wall = np.array(
            [total_wall(float(T), float(F), overhead)
             for T, F in zip(exec_time, interval)]
        )
        k_done = np.array(
            [checkpoints_completed(float(T), float(T), float(F))
             for T, F in zip(exec_time, interval)],
            dtype=np.int64,
        )
        wall = r.uniform(0.0, 1.3, n) * done_wall  # spans past completion
        productive, saved, n_ckpt = progress_after_wall_arr(
            wall, exec_time, interval, overhead, done_wall, k_done
        )
        for i in range(n):
            p, s, k = progress_after_wall(
                float(wall[i]), float(exec_time[i]), float(interval[i]),
                overhead,
            )
            assert (productive[i], saved[i], n_ckpt[i]) == (p, s, k), i

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_build_correlated_history_matches_scalar_rederivation(self, seed):
        """Rebuild every market from the scalar generator + a pure-python
        scalar overlay under the same derived seeds; demand bit-equality."""
        from repro.cloud.instance_types import PAPER_TYPES
        from repro.cloud.zones import DEFAULT_ZONES
        from repro.market.correlated import build_correlated_history, sample_surges
        from repro.market.presets import market_params
        from repro.sim.rng import derive_seed

        def scalar_overlay(trace, start, end, floor):
            lo, hi = max(start, trace.start_time), min(end, trace.end_time)
            if hi <= lo:
                return trace
            times = list(trace.times)
            prices = list(trace.prices)
            for cut in (lo, hi):
                if cut < trace.end_time and cut not in times:
                    idx = int(np.searchsorted(times, cut, side="right") - 1)
                    times.insert(idx + 1, cut)
                    prices.insert(idx + 1, prices[idx])
            new_p = [max(p, floor) if lo <= t < hi else p
                     for t, p in zip(times, prices)]
            keep = [0] + [k for k in range(1, len(times))
                          if new_p[k] != new_p[k - 1]]
            return SpotPriceTrace(
                [times[k] for k in keep], [new_p[k] for k in keep],
                trace.end_time,
            )

        duration, rho = 240.0, 0.6
        got = build_correlated_history(duration, seed=seed, correlation=rho)
        surges = sample_surges(
            duration, np.random.default_rng(derive_seed(seed, "region-surges"))
        )
        for tname in PAPER_TYPES:
            for zone in DEFAULT_ZONES:
                key = MarketKey(tname, zone.name)
                params = market_params(tname, zone.name)
                trace = RegimeSwitchingGenerator(
                    params,
                    np.random.default_rng(derive_seed(seed, f"corr-market:{key}")),
                ).generate(duration)
                join = np.random.default_rng(
                    derive_seed(seed, f"corr-join:{key}")
                )
                for surge in surges:
                    if join.random() < rho:
                        trace = scalar_overlay(
                            trace, surge.start, surge.end,
                            surge.severity * params.base_price,
                        )
                have = got.get(key)
                assert have.times.tobytes() == trace.times.tobytes(), key
                assert have.prices.tobytes() == trace.prices.tobytes(), key
                assert have.end_time == trace.end_time, key


NO_REFUND = BillingPolicy(granularity_hours=1.0, refund_interrupted_hour=False)
QUARTER = BillingPolicy(granularity_hours=0.25)
BILLING_POLICIES = [CONTINUOUS, HOURLY, NO_REFUND, QUARTER]
BILLING_IDS = ["continuous", "hourly", "no-refund", "quarter-hour"]


def assert_bills_match(trace, launch, end, interrupted, policy):
    """billed_cost_batch against billed_spot_cost, bit for bit."""
    from repro.cloud.spot import billed_spot_cost
    from repro.execution.kernels import billed_cost_batch

    launch = np.asarray(launch, dtype=float)
    end = np.asarray(end, dtype=float)
    interrupted = np.broadcast_to(np.asarray(interrupted, bool), launch.shape)
    got = billed_cost_batch(trace, launch, end, interrupted, policy)
    assert got.dtype == np.float64 and got.shape == launch.shape
    for i in range(launch.size):
        want = billed_spot_cost(
            trace, float(launch[i]), float(end[i]), bool(interrupted[i]),
            policy,
        )
        assert got[i].view(np.uint64) == np.float64(want).view(np.uint64), (
            i, launch[i], end[i], bool(interrupted[i]),
        )
    return got


class TestBilledCostBatch:
    """The batch billing kernel on the edges of 2014 EC2 billing."""

    #: Prices change exactly on the hour, so hour-locked boundaries land
    #: on change points.
    ON_THE_HOUR = SpotPriceTrace(
        np.arange(24.0), 0.01 * (1.0 + np.arange(24.0) % 5), 24.0
    )

    @pytest.mark.parametrize("policy", BILLING_POLICIES, ids=BILLING_IDS)
    @pytest.mark.parametrize("interrupted", [False, True])
    def test_launches_on_hour_boundaries(self, policy, interrupted):
        launch = np.repeat(np.arange(0.0, 20.0), 4)
        end = launch + np.tile([1.0, 2.0, 2.5, 3.75], 20)
        assert_bills_match(self.ON_THE_HOUR, launch, end, interrupted, policy)

    @pytest.mark.parametrize("policy", BILLING_POLICIES, ids=BILLING_IDS)
    @pytest.mark.parametrize("interrupted", [False, True])
    def test_windows_reaching_the_trace_end(self, policy, interrupted):
        trace = RegimeSwitchingGenerator(
            _SPIKY, np.random.default_rng(SEEDS[0])
        ).generate(120.0)
        r = np.random.default_rng(4)
        launch = np.concatenate([
            trace.end_time - r.uniform(0.0, 9.0, 30),
            trace.end_time - np.arange(1.0, 6.0),  # whole hours to the end
        ])
        end = np.full(launch.size, trace.end_time)
        assert_bills_match(trace, launch, end, interrupted, policy)

    @pytest.mark.parametrize("policy", [HOURLY, NO_REFUND, QUARTER],
                             ids=["hourly", "no-refund", "quarter-hour"])
    def test_hours_past_the_trace_end_use_the_last_price(self, policy):
        """Hour boundaries at or past the end are clamped just inside it."""
        trace = self.ON_THE_HOUR
        launch = np.array([20.5, 22.0, 23.0, 23.9])
        end = np.array([26.0, 24.0, 25.5, 30.0])
        got = assert_bills_match(trace, launch, end, False, policy)
        assert got[-1] > 0.0

    def test_interrupted_partial_hour_is_refunded_only_with_refund(self):
        trace = self.ON_THE_HOUR
        launch = np.array([1.0, 1.0, 4.2, 4.2])
        end = np.array([3.5, 3.5, 4.7, 4.7])
        interrupted = np.array([True, False, True, False])
        hourly = assert_bills_match(trace, launch, end, interrupted, HOURLY)
        assert hourly[0] < hourly[1] and hourly[2] == 0.0 < hourly[3]
        kept = assert_bills_match(trace, launch, end, interrupted, NO_REFUND)
        assert kept[0] == kept[1] and kept[2] == kept[3] > 0.0

    @pytest.mark.parametrize("policy", BILLING_POLICIES, ids=BILLING_IDS)
    @pytest.mark.parametrize("interrupted", [False, True])
    def test_zero_length_and_sub_tolerance_partials(self, policy, interrupted):
        base = np.array([0.0, 3.0, 7.25, 11.5, 21.0])
        launch = np.tile(base, 4)
        end = launch + np.repeat([0.0, 5e-13, 2.0 + 5e-13, 1.0 - 5e-13], 5)
        got = assert_bills_match(
            self.ON_THE_HOUR, launch, end, interrupted, policy
        )
        assert (got[:5] == 0.0).all()

    @pytest.mark.parametrize("policy", BILLING_POLICIES, ids=BILLING_IDS)
    def test_empty_batch(self, policy):
        from repro.execution.kernels import billed_cost_batch

        got = billed_cost_batch(
            self.ON_THE_HOUR, np.empty(0), np.empty(0), np.empty(0, bool),
            policy,
        )
        assert got.shape == (0,) and got.dtype == np.float64

    @pytest.mark.parametrize("billing", [HOURLY, NO_REFUND],
                             ids=["hourly", "no-refund"])
    @pytest.mark.parametrize("semantics", ["single-shot", "persistent"])
    def test_many_instances_per_group(self, billing, semantics):
        """Replays bill n_instances times the per-instance kernel."""
        problem, decision, h = spiky_setup(SEEDS[1])
        problem = dataclasses.replace(problem, groups=tuple(
            dataclasses.replace(g, n_instances=n)
            for g, n in zip(problem.groups, (5, 3))
        ))
        starts = sample_start_times(
            problem, decision, h, 12, np.random.default_rng(8)
        )
        batch = replay_batch(
            problem, decision, h, starts, semantics=semantics, billing=billing
        )
        for t, got in zip(starts, batch):
            want = replay_decision(
                problem, decision, h, float(t), semantics=semantics,
                billing=billing,
            )
            assert_runs_equal(want, got, f"{billing}/{semantics}")

    @pytest.mark.parametrize("policy", BILLING_POLICIES, ids=BILLING_IDS)
    @pytest.mark.parametrize("launch, end", [
        (5.0, 4.0),  # reversed bounds
        (-1.0, 2.5),  # launch before the trace starts
        (-3.0, -1.0),  # the whole window before the trace
        (22.5, 30.0),  # past the end: continuous integrates past the trace
    ], ids=["reversed", "early-launch", "before-trace", "past-end"])
    def test_bad_windows_raise_what_the_scalar_raises(
        self, policy, launch, end
    ):
        from repro.cloud.spot import billed_spot_cost
        from repro.execution.kernels import billed_cost_batch

        trace = self.ON_THE_HOUR
        try:
            want = billed_spot_cost(trace, launch, end, False, policy)
        except Exception as exc:  # noqa: BLE001 - the type is the oracle
            want = type(exc)
        ok_launch, ok_end = np.array([1.0, 2.0]), np.array([3.0, 2.5])
        try:
            got = billed_cost_batch(
                trace, np.append(ok_launch, launch), np.append(ok_end, end),
                np.zeros(3, bool), policy,
            )[-1]
        except Exception as exc:  # noqa: BLE001
            got = type(exc)
        assert got == want
        if launch > end or (launch < 0.0 and end > launch):
            assert want is TraceError  # every such window is refused

    @settings(max_examples=150, deadline=None)
    @given(data=hyp.data())
    def test_random_traces_and_windows(self, data):
        n = data.draw(hyp.integers(1, 8), label="segments")
        start = data.draw(hyp.sampled_from([0.0, 13.7, 2.0**19]))
        gaps = data.draw(hyp.lists(
            hyp.floats(0.01, 5.0), min_size=n, max_size=n))
        times = start + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
        prices = data.draw(hyp.lists(
            hyp.floats(0.0, 3.0), min_size=n, max_size=n))
        end_time = float(times[-1]) + gaps[-1]
        trace = SpotPriceTrace(times, prices, end_time)
        m = data.draw(hyp.integers(1, 6), label="windows")
        launch, end = [], []
        for _ in range(m):
            a = data.draw(hyp.floats(start, end_time, exclude_max=True))
            b = data.draw(hyp.one_of(
                hyp.just(a), hyp.just(end_time),
                hyp.floats(a, end_time),
                hyp.floats(0.0, 4.0).map(lambda d, a=a: min(a + d, end_time)),
            ))
            launch.append(a)
            end.append(b)
        interrupted = data.draw(hyp.lists(hyp.booleans(), min_size=m, max_size=m))
        policy = data.draw(hyp.sampled_from(BILLING_POLICIES))
        assert_bills_match(trace, launch, end, interrupted, policy)


class TestGridEvalParity:
    """The planner's one-shot grid kernels (repro.core.grid_eval) against
    their scalar oracles, exact float equality throughout."""

    @staticmethod
    def _model(seed, params=_SPIKY, sub=0):
        gen = RegimeSwitchingGenerator(
            params, np.random.default_rng(7000 * seed + sub)
        )
        return FailureModel(gen.generate(300.0), step_hours=1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("levels", (1, 4, 9))
    def test_bid_matrix_rows_matches_log_bid_candidates(self, seed, levels):
        rng = np.random.default_rng(seed)
        maxima = rng.uniform(0.05, 2.0, size=7)
        floors = maxima * rng.uniform(0.05, 0.95, size=7)
        rows = bid_matrix_rows(maxima, levels, floors)
        assert len(rows) == maxima.size
        for hi, lo, row in zip(maxima, floors, rows):
            ref = log_bid_candidates(float(hi), levels, float(lo))
            assert row.shape == ref.shape
            assert row.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_outcome_grid_matches_from_pmf(self, seed):
        spec = make_group(exec_time=6.0, overhead=0.4, recovery=0.5)
        fm = self._model(seed)
        bid = float(
            log_bid_candidates(fm.max_price(), 4, fm.min_price())[2]
        )
        n = max(1, int(np.ceil(spec.exec_time / fm.step_hours)))
        pmf = fm.failure_pmf(bid, n)
        price = fm.expected_price(bid)
        young = young_interval(
            spec.checkpoint_overhead, fm.mttf_hours(bid), spec.exec_time
        )
        candidates = _interval_candidates(spec, young, fm.step_hours)
        productive, wall, ratios = outcome_grid(
            spec, candidates, pmf.size - 1, fm.step_hours
        )
        for c in range(candidates.size):
            o = GroupOutcome.from_pmf(
                spec, bid, float(candidates[c]), pmf, price, fm.step_hours
            )
            assert productive.tobytes() == o.productive.tobytes()
            assert wall[c].tobytes() == o.wall.tobytes()
            assert ratios[c].tobytes() == o.ratios.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_optimal_interval_grid_bitwise_equal(self, seed):
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        for overhead, recovery in ((0.4, 0.5), (0.05, 0.1)):
            spec = make_group(
                exec_time=6.0, overhead=overhead, recovery=recovery
            )
            fm = self._model(seed, sub=int(overhead * 100))
            for bid in log_bid_candidates(fm.max_price(), 4, fm.min_price()):
                got = optimal_interval_grid(spec, float(bid), fm, od, fm.step_hours)
                ref = optimal_interval(spec, float(bid), fm, od, fm.step_hours)
                # Exact equality: same candidate wins via the same
                # sequential strict-inequality incumbent rule.
                assert got == ref

    @staticmethod
    def _three_group_optimizer(seed, tmp_path):
        """A planner over three generated markets, its tables built."""
        from repro.config import DEFAULT_CONFIG
        from repro.core.two_level import TwoLevelOptimizer

        g1 = make_group(exec_time=6.0, overhead=0.4, recovery=0.5)
        g2 = dataclasses.replace(
            make_group(zone="us-east-1b", exec_time=6.0, overhead=0.3,
                       recovery=0.4),
        )
        g3 = make_group(key_type="c3.xlarge", exec_time=4.0, overhead=0.2,
                        recovery=0.3, n_instances=2)
        od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
        problem = Problem(
            groups=(g1, g2, g3), ondemand_options=(od,), deadline=40.0
        )
        models = {}
        for sub, spec in enumerate(problem.groups):
            gen = RegimeSwitchingGenerator(
                _SPIKY if sub % 2 == 0 else _CALMER,
                np.random.default_rng(9000 * seed + sub),
            )
            models[spec.key] = FailureModel(
                gen.generate(300.0), step_hours=1.0
            )
        config = DEFAULT_CONFIG.with_(artifact_dir=str(tmp_path))
        return TwoLevelOptimizer(problem, models, od, config)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subset_bounds_matches_scalar_subset_bound(self, seed, tmp_path):
        from itertools import combinations

        from repro.core import grid_eval

        clear_shared_caches()
        opt = self._three_group_optimizer(seed, tmp_path)
        od = opt.ondemand
        tables = [opt.group_table(i) for i in range(3)]
        min_spot = np.array([t.e_spot.min() for t in tables])
        min_ratio = np.array([t.e_ratio.min() for t in tables])
        for size in (1, 2, 3):
            subsets = list(combinations(range(3), size))
            cost_b = grid_eval.subset_bounds(
                min_spot, min_ratio,
                np.array(subsets, dtype=np.intp), od.full_run_cost,
            )
            for row, subset in enumerate(subsets):
                chosen = [tables[i] for i in subset]
                assert float(cost_b[row]) == opt._subset_bound(chosen)
        clear_shared_caches()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_subset_score_sums_on_planner_tables(self, seed, tmp_path):
        from itertools import permutations

        from repro.core.two_level import _combo_batches

        clear_shared_caches()
        opt = self._three_group_optimizer(seed, tmp_path)
        tables = [opt.group_table(i) for i in range(3)]
        for size in (1, 2, 3):
            for subset in permutations(range(3), size):
                chosen = [tables[i] for i in subset]
                (batch,) = _combo_batches([t.n_bids for t in chosen], 1 << 20)
                assert_sums_bitwise_equal(
                    subset_score_sums(chosen, batch),
                    subset_scores_oracle(chosen, batch),
                )
        clear_shared_caches()


    @pytest.mark.parametrize("prefix_rows", (1, 2, 5))
    def test_chunked_prefixes_score_as_one_space(
        self, prefix_rows, tmp_path, monkeypatch
    ):
        """The planner's ``_range_sums`` on planner tables: a head longer
        than ``_PREFIX_ROWS`` rows is built and scored in chunks, and a
        combo range may start or end inside one prefix row's combos; the
        sums are still the one-shot oracle's, bit for bit."""
        from itertools import permutations

        from repro.core import two_level

        clear_shared_caches()
        opt = self._three_group_optimizer(3, tmp_path)
        tables = [opt.group_table(i) for i in range(3)]
        monkeypatch.setattr(two_level, "_PREFIX_ROWS", prefix_rows)
        for subset in permutations(range(3), 3):
            chosen = [tables[i] for i in subset]
            (batch,) = two_level._combo_batches(
                [t.n_bids for t in chosen], 1 << 20
            )
            total = batch.shape[0]
            assert total // chosen[-1].n_bids > prefix_rows
            want = subset_scores_oracle(chosen, batch)
            for lo, hi in ((0, total), (3, total // 2), (7, total - 1)):
                assert_sums_bitwise_equal(
                    opt._range_sums(chosen, lo, hi),
                    tuple(w[lo:hi] for w in want),
                )
        clear_shared_caches()

def assert_sums_bitwise_equal(got, want):
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


class _Row:
    """One bid row of a group table, as a one-row table."""

    def __init__(self, table, b: int) -> None:
        self.surv_ratio = table.surv_ratio[b:b + 1]
        self.below_wall = table.below_wall[b:b + 1]


def subset_score_sums(tables, batch):
    """The planner's score kernels in row form: quadrature sums for
    arbitrary combo rows of one subset.

    ``batch`` is a ``(C, k)`` matrix of bid-row indices into ``tables``
    (subset order).  Each combo is scored as a one-combo product space
    through :func:`extend_products` and :func:`extend_score_sums`, so
    every row runs the planner's arithmetic (the planner itself scores
    whole product spaces).  Raises ``IndexError`` on an out-of-range
    index.
    """
    from repro.errors import ConfigurationError

    idx = np.asarray(batch, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[0] == 0 or idx.shape[1] != len(tables):
        raise ConfigurationError(
            f"batch must be a non-empty (C, {len(tables)}) index matrix"
        )
    top = idx.max(axis=0).tolist()
    if idx.min() < 0 or any(
        hi >= t.surv_ratio.shape[0] for hi, t in zip(top, tables)
    ):
        raise IndexError("combo index out of range of its group table")
    sum_r = np.empty(idx.shape[0])
    sum_w = np.empty(idx.shape[0])
    for c, row in enumerate(idx.tolist()):
        rows = [_Row(t, b) for t, b in zip(tables, row)]
        (sum_r[c],), (sum_w[c],) = extend_score_sums(*prefix_chain(rows), rows[-1])
    return sum_r, sum_w


@dataclasses.dataclass
class _ScoreTable:
    """The three grid attributes the subset scorers read."""

    surv_ratio: np.ndarray
    surv_wall: np.ndarray

    @property
    def below_wall(self):
        return 1.0 - self.surv_wall


def adversarial_table(rng, n_bids, width=256):
    """Grid rows in [0, 1] salted with exact 0.0/1.0 and subnormals."""
    tiny = np.array([0.0, 1.0, 5e-324, 2.2e-308, 1e-310, 1.0 - 2**-53])

    def grid():
        g = rng.uniform(0.0, 1.0, size=(n_bids, width))
        salt = rng.random(g.shape) < 0.2
        g[salt] = rng.choice(tiny, size=int(salt.sum()))
        return g

    return _ScoreTable(grid(), grid())


class TestSubsetScoreParity:
    """The tiled subset scorer against the one-shot expression it
    replaced (``tests/oracles/subset_scores.py``), bit for bit."""

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    @pytest.mark.parametrize("n_combos", (1, 7, 49, 255, 256, 257, 2401))
    def test_tiled_matches_one_shot(self, n_combos, k):
        rng = np.random.default_rng(1000 * k + n_combos)
        n_bids = rng.integers(1, 9, size=k)
        tables = [adversarial_table(rng, int(nb)) for nb in n_bids]
        batch = np.stack(
            [rng.integers(0, nb, size=n_combos) for nb in n_bids], axis=1
        )
        assert_sums_bitwise_equal(
            subset_score_sums(tables, batch),
            subset_scores_oracle(tables, batch),
        )

    def test_rows_do_not_depend_on_batch_height(self):
        rng = np.random.default_rng(5)
        tables = [adversarial_table(rng, 7) for _ in range(3)]
        batch = rng.integers(0, 7, size=(600, 3))
        whole = subset_score_sums(tables, batch)
        for lo, hi in ((0, 1), (3, 260), (255, 600), (599, 600)):
            part = subset_score_sums(tables, batch[lo:hi])
            assert_sums_bitwise_equal(part, tuple(w[lo:hi] for w in whole))

    @pytest.mark.parametrize("bad", (7, 8, -1))
    def test_out_of_range_index_raises(self, bad):
        rng = np.random.default_rng(11)
        tables = [adversarial_table(rng, 7) for _ in range(2)]
        batch = rng.integers(0, 7, size=(300, 2))
        batch[299, 1] = bad
        with pytest.raises(IndexError):
            subset_score_sums(tables, batch)

    def test_malformed_batch_rejected(self):
        from repro.errors import ConfigurationError

        rng = np.random.default_rng(12)
        tables = [adversarial_table(rng, 4) for _ in range(2)]
        for batch in (np.zeros((0, 2), dtype=np.intp),
                      np.zeros((5, 3), dtype=np.intp),
                      np.zeros(5, dtype=np.intp)):
            with pytest.raises(ConfigurationError):
                subset_score_sums(tables, batch)


def product_space_sizes(k, n_combos):
    """``k`` table heights whose product is ``n_combos``: its prime
    factors dealt round-robin, so primes such as 257 land in one table
    and the rest have one row."""
    factors, rest, p = [], n_combos, 2
    while rest > 1:
        while rest % p == 0:
            factors.append(p)
            rest //= p
        p += 1
    sizes = [1] * k
    for i, f in enumerate(factors):
        sizes[i % k] *= f
    return sizes


def prefix_chain(tables):
    """The first ``k - 1`` tables' prefix products, group by group."""
    if len(tables) == 1:
        return None, None
    prod_r, prod_w = tables[0].surv_ratio, tables[0].below_wall
    for table in tables[1:-1]:
        prod_r, prod_w = extend_products(prod_r, prod_w, table)
    return prod_r, prod_w


class TestPrefixExtensionParity:
    """The planner's prefix builder (``extend_products``) and
    prefix-extension scorer (``extend_score_sums``) against the one-shot
    oracle, bit for bit, over whole row-major product spaces."""

    @pytest.mark.parametrize("k", (1, 2, 3, 4))
    @pytest.mark.parametrize("n_combos", (1, 7, 49, 255, 256, 257, 2401))
    def test_extension_matches_one_shot(self, n_combos, k):
        rng = np.random.default_rng(7000 * k + n_combos)
        sizes = product_space_sizes(k, n_combos)
        # Rotate, so the big factor is not always the first table.
        sizes = sizes[n_combos % k:] + sizes[:n_combos % k]
        tables = [adversarial_table(rng, nb) for nb in sizes]
        batch = np.indices(sizes).reshape(k, -1).T
        assert batch.shape == (n_combos, k)
        prod_r, prod_w = prefix_chain(tables)
        assert_sums_bitwise_equal(
            extend_score_sums(prod_r, prod_w, tables[-1]),
            subset_scores_oracle(tables, batch),
        )
        if k > 1:
            got = extend_products(prod_r, prod_w, tables[-1])
            want = prefix_products_oracle(tables, batch)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64))

    def test_prefix_rows_extend_independently(self):
        """A slice of prefix rows scores as the same slice of the whole
        space: the planner scores long prefixes in chunks."""
        rng = np.random.default_rng(21)
        tables = [adversarial_table(rng, nb) for nb in (5, 7, 6, 3)]
        prod_r, prod_w = prefix_chain(tables)
        whole = extend_score_sums(prod_r, prod_w, tables[-1])
        for lo, hi in ((0, 1), (3, 131), (129, 210)):
            part = extend_score_sums(prod_r[lo:hi], prod_w[lo:hi], tables[-1])
            assert_sums_bitwise_equal(part, tuple(w[lo * 3:hi * 3] for w in whole))

    def test_mismatched_grids_rejected(self):
        from repro.errors import ConfigurationError

        rng = np.random.default_rng(22)
        a, b = adversarial_table(rng, 4), adversarial_table(rng, 3, width=128)
        for kernel in (extend_products, extend_score_sums):
            with pytest.raises(ConfigurationError):
                kernel(a.surv_ratio, a.below_wall, b)
            with pytest.raises(ConfigurationError):
                kernel(a.surv_ratio[:0], a.below_wall[:0], a)
