"""Persistent warm worker pool for every parallel consumer (DESIGN.md §12).

Parallelism in this library is coarse: whole backtest chunks, one
(window, app) with all its deadline cells each (``run_backtest(jobs=N)``,
``repro backtest --jobs``), and whole experiments (``runner --jobs``).  Monte-Carlo replay itself stays
in-process — one batched array pass covers every starting point, and
fanning starts out measured slower than serial (DESIGN.md §12).  Before
this module, each parallel entry point paid its own process-level cold
start on *every call*.  The spawn itself is cheap only on ``fork``
platforms; under ``spawn`` every worker re-imports numpy and the whole
engine, and either way every new worker rebuilds its group tables
and artifact-store handle from nothing.

:class:`WorkerPool` amortizes all of that:

* **One executor per process** — :meth:`WorkerPool.shared` lazily
  creates a single process-wide pool and every consumer (parallel
  backtest chunks, ``runner --jobs``, the perf bench) submits to it.
  The pool grows when a caller asks for more workers than it has; it
  never shrinks (idle workers are the cache).
* **Warm workers** — an initializer runs once per worker: it pays the
  engine imports and opens the artifact store handle (whose first-open
  eviction scan would otherwise land in the first task), so the first
  real task starts disk-warm.  Per-scope tables (search sidecar
  parts, group tables with their survival grids) then load lazily from
  the warm store and stay in the worker's in-memory caches for its
  whole lifetime — a worker that planned a window once serves the next
  request for it from memory.  That is why the backtest submits one
  task per (window, app) chunk rather than per cell: the deadline cells
  that look up each other's tables run in the same worker.  Two
  workers planning one scope each add their own sidecar part, so
  neither overwrites the other's entries.
* **Lifecycle** — explicitly closeable (:func:`close_shared_pool`),
  closed at interpreter exit (``atexit``), and wired through
  :func:`repro.core.two_level.register_cache_clearer` so
  ``clear_shared_caches()`` — the one switch tests use to simulate a
  cold process — drops the warm workers too.  Fork- and spawn-safe:
  the shared slot is stamped with its owner pid, so a forked child
  never reuses (or joins) its parent's executor, and all worker entry
  points are module-level functions.

:func:`resolve_jobs` is the one worker-count rule every consumer uses,
and :func:`jobs_arg` is the ``--jobs`` type both CLIs parse with.

Determinism is untouched by construction: the pool only changes *where*
tasks run, never what they compute — callers derive their randomness
from (seed, task) and gather in submission order, so output stays
byte-identical to the serial path (``tests/test_worker_pool.py``).
"""

from __future__ import annotations

import argparse
import atexit
import os
from typing import Optional

from .. import obs
from ..core.two_level import register_cache_clearer
from ..errors import ConfigurationError, ReproError

__all__ = [
    "WorkerPool",
    "close_shared_pool",
    "default_max_workers",
    "jobs_arg",
    "resolve_jobs",
]


def default_max_workers() -> int:
    """Worker count when a caller does not name one: the machine's
    cores, capped — the pool serves chunked numeric work, not I/O."""
    return max(1, min(8, os.cpu_count() or 1))


def resolve_jobs(jobs: Optional[int], n_starts: int) -> int:
    """Worker-process count a fan-out will actually use.

    The chunking decision used to be an inline conjunction that silently
    serialised ``jobs=0`` and spawned more workers than chunks; this is
    the single authority both callers and tests consult.  ``None`` means
    serial (1); ``jobs < 1`` is a configuration error; otherwise the
    count is capped by the number of starts (one start cannot be split,
    and a worker without a chunk is pure startup cost).
    """
    if jobs is None:
        return 1
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if n_starts <= 1:
        return 1
    return min(jobs, n_starts)


def jobs_arg(text: str) -> int:
    """argparse ``type`` for ``--jobs``: an integer of at least 1, so a
    smaller count is a usage error (exit 2) in every CLI."""
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _warm_worker() -> None:
    """Per-worker initializer: pay every cold start once, up front.

    Imports the batched replay/kernel/grid-evaluation modules (the bulk
    of a ``spawn`` worker's startup) and opens the artifact-store
    handle, which runs the store's first-open eviction pass here
    instead of inside the first submitted task.  The per-scope tables
    themselves (search sidecar parts, group tables with their survival
    grids) load lazily from the warm store on first use and then live
    in this worker's in-memory caches for its whole lifetime.

    A worker that fails to warm is still a correct worker — warming is
    pure pre-payment, so any failure is swallowed and the first task
    simply pays retail.
    """
    try:
        from ..core import grid_eval, two_level  # noqa: F401  (import cost)
        from . import batch_replay, kernels  # noqa: F401  (import cost)
        from .artifacts import get_store

        get_store(None)
        obs.get_metrics().inc("pool.worker_warmups")
    # reprolint: disable=R006 -- warming is optional pre-payment; a cold worker is still correct
    except Exception:
        pass


class WorkerPool:
    """A lazily-spawned, explicitly-closeable process pool.

    Construct one directly for a private pool (tests use this to pin
    the ``spawn`` start method); everything in the library goes through
    :meth:`shared`.
    """

    def __init__(self, max_workers: int, mp_context=None) -> None:
        if max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = int(max_workers)
        self._mp_context = mp_context
        self._executor = None
        self._owner_pid = os.getpid()

    # ------------------------------------------------------------------
    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def spawned(self) -> bool:
        """Whether the executor (and its workers) currently exist."""
        return self._executor is not None

    def _ensure_executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=self._mp_context,
                initializer=_warm_worker,
            )
            obs.get_metrics().inc("pool.spawns")
        return self._executor

    def submit(self, fn, /, *args, **kwargs):
        """Submit one task; respawns the executor once if it broke.

        A worker killed by the OS (OOM, signal) marks the whole
        executor broken; the one retry turns that into a fresh pool
        instead of poisoning every later caller.
        """
        from concurrent.futures.process import BrokenProcessPool

        obs.get_metrics().inc("pool.tasks")
        try:
            return self._ensure_executor().submit(fn, *args, **kwargs)
        except BrokenProcessPool:
            obs.get_metrics().inc("pool.respawns")
            self.close(wait=False)
            return self._ensure_executor().submit(fn, *args, **kwargs)

    def run_ordered(self, fn, payloads) -> list:
        """Results of ``fn(*payload)`` per payload, in payload order.

        Submission order == gather order, so callers that pre-draw
        their randomness get byte-identical output regardless of which
        worker ran which payload.  A worker that dies mid-task breaks
        the executor: the call raises :class:`ReproError` and the pool
        respawns on its next submit.
        """
        from concurrent.futures.process import BrokenProcessPool

        futures = [self.submit(fn, *payload) for payload in payloads]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            obs.get_metrics().inc("pool.broken")
            self.close(wait=False)
            raise ReproError(f"a pool worker died mid-task: {exc}") from exc

    def close(self, wait: bool = True) -> None:
        """Shut the executor down (idempotent).

        In a forked child the inherited executor belongs to the parent:
        the child only forgets its reference — joining or signalling
        the parent's workers from here would corrupt the parent's pool.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        if os.getpid() != self._owner_pid:
            return
        executor.shutdown(wait=wait, cancel_futures=True)
        obs.get_metrics().inc("pool.closes")

    # ------------------------------------------------------------------
    # The process-wide shared pool
    # ------------------------------------------------------------------
    @classmethod
    def shared(cls, min_workers: Optional[int] = None) -> "WorkerPool":
        """The process-wide pool, created on first use.

        ``min_workers`` is a floor, not an exact size: an existing pool
        with at least that many workers is reused as-is (a warm hit);
        a smaller one is closed and regrown.  ``None`` accepts any
        existing pool and defaults new ones to
        :func:`default_max_workers`.
        """
        global _SHARED_POOL, _SHARED_PID
        if min_workers is not None and min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be >= 1, got {min_workers}"
            )
        pid = os.getpid()
        pool = _SHARED_POOL
        if pool is not None and _SHARED_PID != pid:
            # Forked child: the recorded pool is the parent's.  Forget
            # it (close() in a child is a guarded no-op) and start our
            # own lineage.
            pool = None
        if pool is not None and min_workers is not None:
            if pool.max_workers < min_workers:
                obs.get_metrics().inc("pool.grows")
                pool.close()
                pool = None
        if pool is None:
            pool = cls(
                default_max_workers() if min_workers is None else min_workers
            )
            _SHARED_POOL = pool
            _SHARED_PID = pid
        else:
            obs.get_metrics().inc("pool.warm_hits")
        return pool


# The process-wide pool slot.  ``_SHARED_PID`` stamps the owner so a
# forked child never adopts (or closes) its parent's executor.
_SHARED_POOL: Optional[WorkerPool] = None
_SHARED_PID: Optional[int] = None


def close_shared_pool() -> None:
    """Close the shared pool (if any); the next use respawns it.

    Safe to call from atexit, ``clear_shared_caches()`` and tests alike
    — closing an absent pool is a no-op, and a forked child closing the
    slot only drops its inherited reference.
    """
    global _SHARED_POOL, _SHARED_PID
    pool, _SHARED_POOL, _SHARED_PID = _SHARED_POOL, None, None
    if pool is not None:
        pool.close()


atexit.register(close_shared_pool)

# A warm pool is a shared cache of provisioned processes: the single
# "drop every shared cache" switch must drop it too, or tests that
# simulate a cold process would keep warm workers.
register_cache_clearer(close_shared_pool)
