"""Shared-memory trace pool for multi-process backtests.

``run_backtest(jobs=N)`` fans whole grid cells out to the shared
:class:`~.pool.WorkerPool`, and every cell replays against the full
:class:`SpotPriceHistory`.  Pickling that history into every task
serializes hundreds of kilobytes of trace arrays once *per task*.  The
pool instead copies each trace's ``times``/``prices`` arrays into one
:class:`multiprocessing.shared_memory.SharedMemory` block up front and
ships only a tiny picklable :class:`SharedHistoryHandle`; workers attach
lazily (first task of each worker) and build zero-copy numpy views over
the block.

Correctness properties:

* **Byte identity** — workers see the exact float64 bytes the parent
  wrote (a shared mapping, not a transcode), and the replay math is the
  same :mod:`.batch_replay` code either way, so results are
  byte-identical to the serial path and to the pickling path.
* **Fail-open** — if the platform cannot provide shared memory (no
  ``/dev/shm``, permissions, exotic start methods), pool construction
  raises and the caller falls back to pickling the history; nothing
  behavioural depends on the pool existing.
* **Lifecycle** — the parent owns the blocks: :meth:`SharedTracePool.
  close` unlinks them once the executor has shut down.  Workers only
  ever map existing blocks and explicitly unregister them from the
  ``resource_tracker`` (each worker would otherwise *unlink* the shared
  blocks at exit, racing the parent and other workers).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .. import obs
from ..core.two_level import register_cache_clearer
from ..market.history import MarketKey, SpotPriceHistory
from ..market.trace import SpotPriceTrace

__all__ = [
    "SharedHistoryHandle",
    "SharedTracePool",
    "attach_history",
    "close_trace_pools",
    "history_content_key",
    "shared_trace_handle",
]


@dataclass(frozen=True)
class SharedHistoryHandle:
    """Picklable description of a pooled history (one entry per trace).

    Each entry is ``(type, zone, shm_name, n_segments, end_time)``; the
    block holds ``times`` then ``prices``, each ``n_segments`` float64.
    """

    pool_id: str
    entries: Tuple[Tuple[str, str, str, int, float], ...]
    #: pid of the pool owner's resource-tracker process; a worker whose
    #: tracker is the same process (fork start method) must not touch
    #: the registrations, they are the owner's.
    tracker_pid: int = -1


class SharedTracePool:
    """Parent-side owner of one shared-memory block per trace."""

    def __init__(self, history: SpotPriceHistory) -> None:
        from multiprocessing import shared_memory

        self._owner_pid = os.getpid()
        self._blocks: List[object] = []
        entries: List[Tuple[str, str, str, int, float]] = []
        try:
            for key, trace in history.items():
                n = trace.n_segments
                shm = shared_memory.SharedMemory(
                    create=True, size=2 * n * 8
                )
                self._blocks.append(shm)
                buf = np.ndarray((2 * n,), dtype=np.float64, buffer=shm.buf)
                buf[:n] = trace.times
                buf[n:] = trace.prices
                entries.append(
                    (key.instance_type, key.zone, shm.name, n,
                     trace.end_time)
                )
        except BaseException:
            self.close()
            raise
        self.handle = SharedHistoryHandle(
            pool_id=entries[0][2] if entries else "empty",
            entries=tuple(entries),
            tracker_pid=_tracker_pid(),
        )

    def close(self) -> None:
        """Release and unlink every block (parent side, after workers).

        In a forked child an inherited pool belongs to the parent: the
        child only drops its references — unlinking here would destroy
        blocks the parent (and its other workers) still serve.
        """
        if os.getpid() != self._owner_pid:
            self._blocks = []
            return
        for shm in self._blocks:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        self._blocks = []


def _tracker_pid() -> int:
    """pid of this process's resource-tracker helper (-1 if unknown)."""
    try:
        from multiprocessing import resource_tracker

        pid = getattr(resource_tracker._resource_tracker, "_pid", None)
        return -1 if pid is None else int(pid)
    # reprolint: disable=R006 -- probes a CPython private; any failure means "unknown tracker"
    except Exception:
        return -1


# Worker-side cache: one attached history per pool, keyed by pool_id so
# a long-lived worker serving tasks from several runs never re-attaches
# (or worse, re-copies) the same blocks.  Superseded pools are evicted
# on the next attach (see ``_evict_superseded``): a new history content
# means a new pool, so without eviction a worker reused across runs
# would keep every old pool's mappings open for its whole lifetime.
_ATTACHED: Dict[str, SpotPriceHistory] = {}
_ATTACHED_BLOCKS: Dict[str, list] = {}


def _evict_superseded(current_pool_id: str) -> None:
    """Close and forget every attached pool except ``current_pool_id``.

    The owner of a superseded pool has long since unlinked its blocks;
    only this process's mappings keep the pages alive.  Dropping the
    cached history first releases the numpy views, so the close
    normally succeeds; a ``BufferError`` means someone still holds a
    view into the block — then the mapping must stay (closing a mapped
    buffer out from under a live view would be a crash, not a cleanup)
    and it is simply no longer tracked.
    """
    for pool_id in [p for p in _ATTACHED_BLOCKS if p != current_pool_id]:
        _ATTACHED.pop(pool_id, None)
        for shm in _ATTACHED_BLOCKS.pop(pool_id, []):
            try:
                shm.close()
            except BufferError:
                pass


def attach_history(handle: SharedHistoryHandle) -> SpotPriceHistory:
    """The pooled history, as zero-copy views over the shared blocks.

    Safe to call in the parent too (it maps the same physical pages).
    The attached blocks stay mapped until a *different* pool is
    attached, which closes every other cached mapping (the
    worker-lifetime leak this replaces kept them all mapped).
    """
    cached = _ATTACHED.get(handle.pool_id)
    if cached is not None:
        return cached
    _evict_superseded(handle.pool_id)
    from multiprocessing import shared_memory

    history = SpotPriceHistory()
    blocks: list = []
    for type_name, zone, shm_name, n, end_time in handle.entries:
        shm = shared_memory.SharedMemory(name=shm_name)
        # CPython registers every attach with the resource tracker
        # (bpo-38119), which would make this worker *unlink* the owner's
        # blocks at exit.  Undo that — unless the tracker process is the
        # owner's own (fork start method inherits it), in which case the
        # attach-registration was a set no-op and unregistering here
        # would strip the owner's entry instead.
        if _tracker_pid() != handle.tracker_pid:
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(shm._name, "shared_memory")
            # reprolint: disable=R006 -- best-effort bpo-38119 workaround; worst case is tracker noise
            except Exception:
                pass
        blocks.append(shm)
        buf = np.ndarray((2 * n,), dtype=np.float64, buffer=shm.buf)
        history.add(
            MarketKey(type_name, zone),
            SpotPriceTrace(buf[:n], buf[n:], end_time),
        )
    _ATTACHED[handle.pool_id] = history
    _ATTACHED_BLOCKS[handle.pool_id] = blocks
    return history


# ----------------------------------------------------------------------
# Parent-side registry: one long-lived pool per history *content*
# ----------------------------------------------------------------------
# Keyed by a hash over every (market, trace-content-hash) pair, so two
# history objects with bit-identical traces share one set of shm blocks
# — and, because the handle (pool_id) is stable across calls, a warm
# worker's cached attach keeps serving without remapping.  Before this
# registry, every parallel call built and unlinked a fresh pool even
# for the same history object.  Bounded
# LRU: evicting a pool only unlinks shm blocks; the next call on that
# history pays one rebuild, results are unchanged.

_POOL_REGISTRY: "OrderedDict[str, SharedTracePool]" = OrderedDict()
_POOL_REGISTRY_MAX = 8
_POOL_REGISTRY_PID: int = -1


def history_content_key(history: SpotPriceHistory) -> str:
    """Content hash of a whole history: every market's trace bytes.

    Equal key implies every trace is bit-identical, which is the same
    keying contract the artifact store uses — safe to share shm blocks
    (and therefore replay inputs) across calls.
    """
    import hashlib

    h = hashlib.sha256()
    for key, trace in sorted(history.items(), key=lambda kv: str(kv[0])):
        h.update(str(key).encode())
        h.update(b"\x00")
        h.update(trace.content_hash().encode())
        h.update(b"\x00")
    return h.hexdigest()


def shared_trace_handle(history: SpotPriceHistory) -> SharedHistoryHandle:
    """The registry's handle for this history content, building on miss.

    Raises whatever :class:`SharedTracePool` raises when the platform
    cannot provide shared memory — callers keep their fail-open
    pickling fallback.  Hits and misses land in ``cache.shm_pool_*``
    metrics.
    """
    global _POOL_REGISTRY_PID
    pid = os.getpid()
    if _POOL_REGISTRY_PID != pid:
        # Fresh process — or a forked child that inherited the parent's
        # registry: those pools are the parent's, just forget them
        # (SharedTracePool.close() is pid-guarded anyway).
        _POOL_REGISTRY.clear()
        _POOL_REGISTRY_PID = pid
    metrics = obs.get_metrics()
    key = history_content_key(history)
    pool = _POOL_REGISTRY.get(key)
    if pool is not None:
        _POOL_REGISTRY.move_to_end(key)
        metrics.inc("cache.shm_pool_hits")
        return pool.handle
    metrics.inc("cache.shm_pool_misses")
    pool = SharedTracePool(history)
    _POOL_REGISTRY[key] = pool
    while len(_POOL_REGISTRY) > _POOL_REGISTRY_MAX:
        _, evicted = _POOL_REGISTRY.popitem(last=False)
        evicted.close()
        metrics.inc("cache.shm_pool_evictions")
    return pool.handle


def close_trace_pools() -> None:
    """Unlink every registered pool's blocks (tests, process teardown).

    Workers notice nothing until their next attach of a *different*
    pool (their existing zero-copy mappings keep the pages alive); the
    next parent-side call simply rebuilds.
    """
    global _POOL_REGISTRY_PID
    pools = list(_POOL_REGISTRY.values())
    _POOL_REGISTRY.clear()
    # Reset the pid stamp with the registry: a cleared registry in the
    # stamped owner process is indistinguishable from a fresh one, and
    # leaving the stale stamp would skip the fork guard on next use.
    _POOL_REGISTRY_PID = -1
    for pool in pools:
        pool.close()


def _drop_attached() -> None:
    """Close every worker-side attached mapping (tests, teardown).

    The empty pool id matches nothing, so :func:`_evict_superseded`
    treats every cached attach as superseded and releases it.
    """
    _evict_superseded("")


register_cache_clearer(close_trace_pools)
register_cache_clearer(_drop_attached)
