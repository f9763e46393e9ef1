"""Persistent shared worker pool (DESIGN.md §12).

The contracts under test: parallel ``run_backtest`` is bit-identical to
serial at any job count, sequential parallel backtests reuse one
executor and one shm registry entry instead of respawning per call, the
pool works under the ``spawn`` start method (module-level entry points
only), and ``close()`` leaves no worker processes or shared-memory
segments behind.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.cloud.instance_types import get_instance_type
from repro.cloud.zones import Zone
from repro.config import SompiConfig
from repro.core.problem import OnDemandOption, Problem
from repro.errors import ConfigurationError
from repro.backtest import build_manifest, run_backtest
from repro.execution import shm_pool
from repro.execution.pool import (
    WorkerPool,
    close_shared_pool,
    default_max_workers,
)
from repro.execution.shm_pool import shared_trace_handle
from repro.experiments.env import ExperimentEnv
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group


def _mini_env(seed: int = 11) -> ExperimentEnv:
    return ExperimentEnv.paper_default(
        seed=seed,
        history_days=21.0,
        train_days=7.0,
        config=SompiConfig(kappa=2, bid_levels=5),
        instance_types=("m1.medium", "cc2.8xlarge"),
        zones=(Zone("us-east-1a"), Zone("us-east-1b")),
    )


def _mini_manifest(env: ExperimentEnv):
    return build_manifest(
        env,
        n_windows=2,
        plan_hours=5 * 24.0,
        holdout_hours=3 * 24.0,
        apps=("BT",),
        deadline_factors=(("loose", 1.5),),
        n_samples=30,
    )


@pytest.fixture
def spiky_problem():
    g = make_group(exec_time=6.0, overhead=0.5, recovery=0.5, n_instances=2)
    od = OnDemandOption(get_instance_type("c3.xlarge"), 8, 5.0)
    problem = Problem(groups=(g,), ondemand_options=(od,), deadline=20.0)
    times, prices = [], []
    for k in range(60):
        times += [12.0 * k, 12.0 * k + 9.0]
        prices += [0.05, 0.90]
    h = SpotPriceHistory()
    h.add(g.key, SpotPriceTrace(times, prices, 732.0))
    return problem, h


# ----------------------------------------------------------------------
# Serial == parallel bit-identity for the backtest grid
# ----------------------------------------------------------------------
class TestBacktestParallelIdentity:
    def test_jobs_match_serial_bit_identically(self):
        env = _mini_env()
        manifest = _mini_manifest(env)
        serial = run_backtest(env, manifest, jobs=1)
        for jobs in (2, 8):
            parallel = run_backtest(_mini_env(), manifest, jobs=jobs)
            # Frozen dataclasses of floats/tuples: == is bit-identity
            # (any drifted float64 breaks equality).
            assert parallel.results == serial.results

    def test_parallel_emits_the_serial_event_stream(self):
        env = _mini_env()
        manifest = _mini_manifest(env)
        metrics = obs.get_metrics()
        before = metrics.get("backtest.cells")
        run_backtest(env, manifest, jobs=2)
        cells = len(manifest.windows) * len(manifest.apps) * len(
            manifest.deadline_factors
        )
        assert metrics.get("backtest.cells") == before + cells


# ----------------------------------------------------------------------
# Pool reuse across sequential parallel backtests
# ----------------------------------------------------------------------
class TestSequentialReuse:
    def test_one_spawn_many_calls_and_shm_registry_hits(self):
        env = _mini_env()
        manifest = _mini_manifest(env)
        close_shared_pool()
        shm_pool.close_trace_pools()
        metrics = obs.get_metrics()
        spawns0 = metrics.get("pool.spawns")
        first = run_backtest(env, manifest, jobs=2)
        assert metrics.get("pool.spawns") == spawns0 + 1
        hits0 = metrics.get("cache.shm_pool_hits")
        warm0 = metrics.get("pool.warm_hits")
        second = run_backtest(env, manifest, jobs=2)
        # Same process, same history content: no new executor, no new
        # shm blocks — the registry and the shared pool both hit warm.
        assert metrics.get("pool.spawns") == spawns0 + 1
        assert metrics.get("cache.shm_pool_hits") == hits0 + 1
        assert metrics.get("pool.warm_hits") == warm0 + 1
        assert first.results == second.results

    def test_shared_grows_but_never_shrinks(self):
        close_shared_pool()
        pool = WorkerPool.shared(1)
        assert pool.max_workers == 1
        grown = WorkerPool.shared(2)
        assert grown.max_workers == 2
        assert WorkerPool.shared(1) is grown
        close_shared_pool()

    def test_clear_shared_caches_drops_the_pool(self):
        from repro.core.two_level import clear_shared_caches

        env = _mini_env()
        run_backtest(env, _mini_manifest(env), jobs=2)
        pool = WorkerPool.shared()
        assert pool.spawned
        clear_shared_caches()
        assert not pool.spawned
        assert WorkerPool.shared() is not pool

    def test_min_workers_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)
        with pytest.raises(ConfigurationError):
            WorkerPool.shared(0)

    def test_default_max_workers_bounds(self):
        assert 1 <= default_max_workers() <= 8


# ----------------------------------------------------------------------
# Start-method portability
# ----------------------------------------------------------------------
class TestSpawnSmoke:
    def test_spawn_context_pool_round_trips(self):
        pool = WorkerPool(1, mp_context=multiprocessing.get_context("spawn"))
        try:
            pid = pool.submit(os.getpid).result()
            assert pid != os.getpid()
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Clean teardown
# ----------------------------------------------------------------------
class TestTeardown:
    def test_close_reaps_every_worker(self):
        pool = WorkerPool(2)
        pids = {pool.submit(os.getpid).result() for _ in range(4)}
        assert pool.spawned
        pool.close()
        assert not pool.spawned
        for pid in pids:
            # shutdown(wait=True) joins and reaps; a surviving (or
            # zombie) worker would still answer signal 0.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_trace_pools_unlinks_segments(self, spiky_problem):
        from multiprocessing import shared_memory

        _, h = spiky_problem
        shm_pool.close_trace_pools()
        handle = shared_trace_handle(h)
        names = [entry[2] for entry in handle.entries]
        assert names
        shm_pool.close_trace_pools()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_resubmittable(self):
        pool = WorkerPool(1)
        assert pool.submit(os.getpid).result() > 0
        pool.close()
        pool.close()
        # A closed pool lazily respawns on the next submit.
        assert pool.submit(os.getpid).result() > 0
        pool.close()
