"""Monte-Carlo evaluation of a decision by repeated trace replay.

The paper: "We randomly choose a start point in the trace and compare
our bid price with the spot price along the time ... We repeat the
simulation [many] times and calculate the expected cost."  Replays are
independent given the starting points, which are drawn uniformly from
the part of the history that leaves room for the replay horizon.

Execution strategy: every replay — single-shot *and* persistent,
either billing policy, with or without storage accounting, pure
on-demand decisions included — is batched through :mod:`.batch_replay`
(bit-identical to the scalar parity oracle, see that module).
:func:`evaluate_decision_mc` and :func:`replay_many` accept ``jobs``
to fan the pre-drawn starting points out over worker processes — the
starts are drawn *before* chunking and the chunk results are
concatenated in order, so the output is byte-identical to a serial run
regardless of ``jobs``.

The fan-out goes through the persistent shared :class:`~.pool.
WorkerPool` (DESIGN.md §12): the executor is spawned once per process
and reused by every evaluation, and traces ship through the long-lived
content-hash-keyed shm registry (:func:`~.shm_pool.shared_trace_handle`)
so the same history never rebuilds its shared blocks call after call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS
from ..core.problem import Decision, Problem
from ..errors import ConfigurationError, TraceError
from ..market.history import SpotPriceHistory
from .batch_replay import replay_batch
from .replay import decision_horizon
from .results import MonteCarloSummary, RunResult
from .shm_pool import SharedHistoryHandle, attach_history, shared_trace_handle


def sample_start_times(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    n_samples: int,
    rng: np.random.Generator,
    horizon: Optional[float] = None,
    t_min: Optional[float] = None,
) -> np.ndarray:
    """Uniform starting points leaving ``horizon`` hours of trace.

    ``t_min`` restricts sampling to start at/after that time — used to
    keep evaluation replays out of the model's training window.

    A pure on-demand decision consumes no trace during its replay, but
    its starting points still honour ``t_min`` and the trace window of
    the problem's candidate markets (when the history has them), so its
    timestamps are drawn from the same evaluation period as the hybrid
    replays it is compared against.  With no trace data at all, every
    start is pinned to ``t_min`` (or 0).
    """
    if horizon is None:
        horizon = decision_horizon(problem, decision)
    lo, hi = None, None
    keys = [problem.groups[g.group_index].key for g in decision.groups]
    need_trace = bool(keys)
    if not keys:
        # Pure on-demand: fall back to the problem's candidate markets
        # so the window (and t_min) still shape the sampled starts.
        keys = [spec.key for spec in problem.groups if spec.key in history]
    if not keys:
        base = 0.0 if t_min is None else float(t_min)
        return np.full(n_samples, base)
    for key in keys:
        trace = history.get(key)
        lo = trace.start_time if lo is None else max(lo, trace.start_time)
        hi = trace.end_time if hi is None else min(hi, trace.end_time)
    if t_min is not None:
        lo = max(lo, t_min)
    # An on-demand run needs no trace data after its start, so the
    # horizon margin only applies when spot groups will actually replay.
    latest = hi - horizon if need_trace else hi
    if latest <= lo:
        raise TraceError(
            f"history too short for Monte-Carlo: window [{lo}, {hi}) cannot "
            f"fit a {horizon:.3g} h replay"
        )
    return rng.uniform(lo, latest, size=n_samples)


def _replay_chunk(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float],
    semantics: str,
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> list[RunResult]:
    """Replay one chunk of starting points (module-level so worker
    processes can import it)."""
    return replay_batch(
        problem, decision, history, starts, horizon=horizon,
        semantics=semantics, billing=billing,
        account_storage=account_storage,
    )


def _replay_chunk_shm(
    problem: Problem,
    decision: Decision,
    handle: SharedHistoryHandle,
    starts: np.ndarray,
    horizon: Optional[float],
    semantics: str,
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> list[RunResult]:
    """Worker entry point for the shared-memory path: attach the pooled
    traces (once per worker — the handle is tiny, the attach is cached)
    and replay exactly like :func:`_replay_chunk`."""
    return _replay_chunk(
        problem, decision, attach_history(handle), starts, horizon,
        semantics, billing, account_storage,
    )


def resolve_jobs(jobs: Optional[int], n_starts: int) -> int:
    """Worker-process count the replay fan-out will actually use.

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


def _replay_starts(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float],
    semantics: str,
    jobs: Optional[int],
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> list[RunResult]:
    """Replay every start, fanning chunks out to worker processes.

    The shared-memory shipping is fail-open twice over: a platform
    that cannot provide shared memory falls back to pickling the
    history into every chunk, and a worker whose attach fails mid-run
    (the registry's segment vanished under it) surfaces its OSError at
    the gather, which re-runs every chunk through the pickling path.
    Results are byte-identical on every path (same arrays, same replay
    code) and each degradation is a counted metric, never an error.
    """
    n_jobs = resolve_jobs(jobs, int(starts.size))
    if n_jobs > 1:
        from .pool import WorkerPool

        chunks = np.array_split(starts, n_jobs)
        # Ship the traces through the long-lived shared-memory registry
        # instead of re-pickling the history into every chunk (or
        # rebuilding the blocks per call).
        handle: Optional[SharedHistoryHandle] = None
        try:
            handle = shared_trace_handle(history)
        # reprolint: disable=R006 -- fail-open: no shared memory means the pickling path, counted
        except Exception:
            obs.get_metrics().inc("mc.shm_pool_unavailable")
            handle = None
        pool = WorkerPool.shared(n_jobs)
        if handle is not None:
            try:
                futures = [
                    pool.submit(
                        _replay_chunk_shm, problem, decision, handle,
                        chunk, horizon, semantics, billing,
                        account_storage,
                    )
                    for chunk in chunks
                ]
                results: list[RunResult] = []
                for future in futures:  # submission order == start order
                    results.extend(future.result())
                return results
            except OSError:
                # A worker lost the segment between the parent's probe
                # and its own attach; the replay itself is stateless,
                # so recompute through the pickling path.
                obs.get_metrics().inc("mc.shm_attach_failed")
        futures = [
            pool.submit(
                _replay_chunk, problem, decision, history, chunk,
                horizon, semantics, billing, account_storage,
            )
            for chunk in chunks
        ]
        results = []
        for future in futures:  # submission order == start order
            results.extend(future.result())
        return results
    return _replay_chunk(
        problem, decision, history, starts, horizon, semantics, billing,
        account_storage,
    )


def evaluate_decision_mc(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    n_samples: int,
    rng: np.random.Generator,
    deadline: Optional[float] = None,
    horizon: Optional[float] = None,
    t_min: Optional[float] = None,
    semantics: str = "single-shot",
    jobs: Optional[int] = None,
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> MonteCarloSummary:
    """Expected cost/time of ``decision`` over random starting points.

    ``jobs > 1`` replays chunks of starts in worker processes; the
    summary is byte-identical to the serial run for the same ``rng``.
    ``billing`` / ``account_storage`` select the billing policy and the
    checkpoint-storage accounting of every replay.
    """
    deadline = problem.deadline if deadline is None else deadline
    metrics = obs.get_metrics()
    metrics.inc("mc.evaluations")
    metrics.inc("mc.samples", n_samples)
    starts = sample_start_times(
        problem, decision, history, n_samples, rng, horizon, t_min
    )
    with metrics.timer("mc.replay"):
        results = _replay_starts(
            problem, decision, history, starts, horizon, semantics, jobs,
            billing, account_storage,
        )
    return MonteCarloSummary.from_results(results, deadline)


def replay_many(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    n_samples: int,
    rng: np.random.Generator,
    horizon: Optional[float] = None,
    t_min: Optional[float] = None,
    semantics: str = "single-shot",
    jobs: Optional[int] = None,
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> list[RunResult]:
    """Raw replay results (for distribution plots and variance studies)."""
    starts = sample_start_times(
        problem, decision, history, n_samples, rng, horizon, t_min
    )
    return _replay_starts(
        problem, decision, history, starts, horizon, semantics, jobs,
        billing, account_storage,
    )
