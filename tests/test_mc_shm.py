"""Shared-memory trace transport tests.

The contracts: a pooled history attaches byte-identically and its
worker-side mappings are evicted, not leaked; the parallel backtest's
shm plumbing is fail-open (no shared memory, or an attach that fails in
a worker, still gives the serial report, and each degradation is
counted); and :func:`resolve_jobs` is the single authority for the
worker-count decision.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.backtest import harness, run_backtest
from repro.cloud.instance_types import get_instance_type
from repro.core.problem import OnDemandOption, Problem
from repro.errors import ConfigurationError
from repro.execution import shm_pool
from repro.execution.pool import resolve_jobs
from repro.execution.shm_pool import (
    SharedHistoryHandle,
    SharedTracePool,
    attach_history,
)
from repro.market.history import SpotPriceHistory
from repro.market.trace import SpotPriceTrace
from tests.conftest import make_group
from tests.test_worker_pool import _mini_env, _mini_manifest


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


class TestSharedTracePool:
    def test_attach_is_byte_identical(self, spiky_problem):
        _, h = spiky_problem
        pool = SharedTracePool(h)
        try:
            attached = attach_history(pool.handle)
            for key, trace in h.items():
                got = attached.get(key)
                assert got.times.tobytes() == trace.times.tobytes()
                assert got.prices.tobytes() == trace.prices.tobytes()
                assert got.end_time == trace.end_time
        finally:
            pool.close()

    def test_close_is_idempotent(self, spiky_problem):
        _, h = spiky_problem
        pool = SharedTracePool(h)
        pool.close()
        pool.close()


class TestParallelByteIdentity:
    """``run_backtest``'s fail-open seams: every degraded path gives the
    serial report bit for bit, and each degradation is counted."""

    def test_pickling_fallback_matches_and_is_counted(self, monkeypatch):
        env = _mini_env()
        manifest = _mini_manifest(env)
        serial = run_backtest(env, manifest, jobs=1)

        def boom(history):
            raise OSError("no /dev/shm here")

        # Drop any registered pool for this content first — the registry
        # would otherwise serve a cached handle and never call the
        # patched factory.
        shm_pool.close_trace_pools()
        monkeypatch.setattr(shm_pool, "SharedTracePool", boom)
        metrics = obs.get_metrics()
        before = metrics.get("backtest.shm_pool_unavailable")
        fallback = run_backtest(_mini_env(), manifest, jobs=2)
        assert metrics.get("backtest.shm_pool_unavailable") == before + 1
        assert fallback.results == serial.results

    def test_attach_failure_recomputes_serially_and_is_counted(
        self, monkeypatch
    ):
        env = _mini_env()
        manifest = _mini_manifest(env)
        serial = run_backtest(env, manifest, jobs=1)

        # A handle naming segments that do not exist: every worker's
        # attach raises FileNotFoundError, whatever the start method.
        ghost = SharedHistoryHandle(
            pool_id=f"absent-{os.getpid()}",
            entries=tuple(
                (key.instance_type, key.zone, f"absent-{os.getpid()}-{i}",
                 trace.n_segments, trace.end_time)
                for i, (key, trace) in enumerate(env.history.items())
            ),
        )
        monkeypatch.setattr(
            harness, "shared_trace_handle", lambda history: ghost
        )
        metrics = obs.get_metrics()
        before = metrics.get("backtest.shm_attach_failed")
        recomputed = run_backtest(_mini_env(), manifest, jobs=2)
        assert metrics.get("backtest.shm_attach_failed") == before + 1
        assert recomputed.results == serial.results


class TestWorkerPoolEviction:
    """Superseded pool mappings are closed, not leaked (two sequential
    evaluations must leave exactly one pool attached)."""

    def _cleanup(self):
        from repro.execution import shm_pool

        shm_pool._evict_superseded("__cleanup__")

    def test_second_attach_closes_the_first_pool(self, spiky_problem):
        from repro.execution import shm_pool

        _, h = spiky_problem
        pool_a = SharedTracePool(h)
        pool_b = None
        try:
            attach_history(pool_a.handle)
            id_a = pool_a.handle.pool_id
            blocks_a = list(shm_pool._ATTACHED_BLOCKS[id_a])
            assert blocks_a  # one block per trace was mapped

            pool_b = SharedTracePool(h)
            attach_history(pool_b.handle)
            # Only the current pool is tracked ...
            assert set(shm_pool._ATTACHED) == {pool_b.handle.pool_id}
            assert set(shm_pool._ATTACHED_BLOCKS) == {pool_b.handle.pool_id}
            # ... and the superseded pool's mappings were closed.
            for shm in blocks_a:
                assert shm.buf is None
        finally:
            pool_a.close()
            if pool_b is not None:
                pool_b.close()
            self._cleanup()

    def test_reattach_same_pool_is_cached_and_kept(self, spiky_problem):
        from repro.execution import shm_pool

        _, h = spiky_problem
        pool = SharedTracePool(h)
        try:
            first = attach_history(pool.handle)
            assert attach_history(pool.handle) is first
            assert set(shm_pool._ATTACHED) == {pool.handle.pool_id}
        finally:
            pool.close()
            self._cleanup()

    def test_live_view_survives_eviction(self, spiky_problem):
        _, h = spiky_problem
        key, trace = next(iter(h.items()))
        pool_a = SharedTracePool(h)
        pool_b = None
        try:
            hist_a = attach_history(pool_a.handle)
            times_view = hist_a.get(key).times  # simulate an in-flight chunk
            del hist_a
            pool_b = SharedTracePool(h)
            attach_history(pool_b.handle)
            # The mapping under the live view was not yanked: the numpy
            # view still reads the original bytes (BufferError path).
            assert times_view.tobytes() == trace.times.tobytes()
        finally:
            pool_a.close()
            if pool_b is not None:
                pool_b.close()
            self._cleanup()
