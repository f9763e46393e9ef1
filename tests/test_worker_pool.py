"""Persistent shared worker pool (DESIGN.md §12).

The contracts under test: parallel ``run_backtest`` is bit-identical to
serial at any job count, sequential parallel backtests reuse one
executor instead of respawning per call, a forked child never adopts
its parent's shared pool, the pool works under the ``spawn`` start
method (module-level entry points only), ``close()`` leaves no worker
processes behind, and :func:`resolve_jobs` is the single authority for
the worker-count decision.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.cloud.zones import Zone
from repro.config import SompiConfig
from repro.errors import ConfigurationError
from repro.backtest import build_manifest, run_backtest
from repro.execution.pool import (
    WorkerPool,
    close_shared_pool,
    default_max_workers,
    resolve_jobs,
)
from repro.experiments.env import ExperimentEnv


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


class TestMultiCellChunks:
    """Two apps × two deadlines: every (window, app) chunk runs two
    cells in one worker, sharing its failure models."""

    @staticmethod
    def _manifest(env):
        return build_manifest(
            env,
            n_windows=2,
            plan_hours=5 * 24.0,
            holdout_hours=3 * 24.0,
            apps=("BT", "SP"),
            deadline_factors=(("loose", 1.5), ("tight", 1.1)),
            n_samples=20,
        )

    def test_jobs_match_serial_bit_identically(self):
        env = _mini_env()
        manifest = self._manifest(env)
        serial = run_backtest(env, manifest, jobs=1)
        assert len(serial.results) == 8
        for jobs in (2, 8):
            parallel = run_backtest(_mini_env(), manifest, jobs=jobs)
            assert parallel.results == serial.results

    def test_one_task_per_chunk_one_snapshot_per_cell(self, monkeypatch):
        env = _mini_env()
        manifest = self._manifest(env)
        n_chunks = len(manifest.windows) * len(manifest.apps)
        n_cells = n_chunks * len(manifest.deadline_factors)
        metrics = obs.get_metrics()
        snapshots = []
        merge = metrics.merge_snapshot

        def recording(snapshot):
            snapshots.append(snapshot)
            merge(snapshot)

        monkeypatch.setattr(metrics, "merge_snapshot", recording)
        tasks0 = metrics.get("pool.tasks")
        cells0 = metrics.get("backtest.cells")
        plan = metrics.timers.get("backtest.plan")
        plans0 = plan.calls if plan is not None else 0
        run_backtest(env, manifest, jobs=2)
        assert metrics.get("pool.tasks") == tasks0 + n_chunks
        assert metrics.get("backtest.cells") == cells0 + n_cells
        assert metrics.timers["backtest.plan"].calls == plans0 + n_cells
        assert len(snapshots) == n_cells
        assert all(
            s["timers"]["backtest.plan"]["calls"] == 1 for s in snapshots
        )


# ----------------------------------------------------------------------
# Pool reuse across sequential parallel backtests
# ----------------------------------------------------------------------
class TestSequentialReuse:
    def test_one_spawn_many_calls_and_warm_pool_hits(self):
        env = _mini_env()
        manifest = _mini_manifest(env)
        close_shared_pool()
        metrics = obs.get_metrics()
        spawns0 = metrics.get("pool.spawns")
        first = run_backtest(env, manifest, jobs=2)
        assert metrics.get("pool.spawns") == spawns0 + 1
        warm0 = metrics.get("pool.warm_hits")
        second = run_backtest(env, manifest, jobs=2)
        # Same process: no new executor, the shared pool hits warm.
        assert metrics.get("pool.spawns") == spawns0 + 1
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
# Fork safety of the shared slot
# ----------------------------------------------------------------------
def _forked_child_probe(conn, parent_pool) -> None:
    """Runs in a ``fork`` child: does the shared slot start a new lineage?"""
    pool = WorkerPool.shared(2)
    conn.send((pool is not parent_pool, pool.spawned))
    close_shared_pool()
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkSafety:
    def test_forked_child_gets_its_own_unspawned_pool(self):
        close_shared_pool()
        parent_pool = WorkerPool.shared(2)
        try:
            assert parent_pool.submit(os.getpid).result() != os.getpid()
            assert parent_pool.spawned
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_forked_child_probe, args=(send, parent_pool)
            )
            child.start()
            send.close()
            assert recv.poll(60), "forked child sent no report"
            report = recv.recv()
            child.join(timeout=60)
            assert not child.is_alive()
            assert child.exitcode == 0
            # The child got a pool of its own, not yet spawned ...
            assert report == (True, False)
            # ... and its close left the parent's executor serving.
            assert WorkerPool.shared(2) is parent_pool
            assert parent_pool.submit(os.getpid).result(
                timeout=60
            ) != os.getpid()
        finally:
            close_shared_pool()


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
# The worker-count rule
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None, 100) == 1

    @pytest.mark.parametrize("jobs", [0, -1, -7])
    def test_nonpositive_is_a_configuration_error(self, jobs):
        with pytest.raises(ConfigurationError):
            resolve_jobs(jobs, 100)

    def test_single_start_stays_serial(self):
        assert resolve_jobs(8, 1) == 1
        assert resolve_jobs(8, 0) == 1

    def test_capped_by_start_count(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(3, 100) == 3


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

    def test_close_is_idempotent_and_resubmittable(self):
        pool = WorkerPool(1)
        assert pool.submit(os.getpid).result() > 0
        pool.close()
        pool.close()
        # A closed pool lazily respawns on the next submit.
        assert pool.submit(os.getpid).result() > 0
        pool.close()
