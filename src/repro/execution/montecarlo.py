"""Monte-Carlo evaluation of a decision by repeated trace replay.

The paper: "We randomly choose a start point in the trace and compare
our bid price with the spot price along the time ... We repeat the
simulation [many] times and calculate the expected cost."  Replays are
independent given the starting points, which are drawn uniformly from
the part of the history that leaves room for the replay horizon.

Execution strategy: every replay — single-shot *and* persistent,
either billing policy, with or without storage accounting, pure
on-demand decisions included — is batched through :mod:`.batch_replay`
(bit-identical to the scalar parity oracle, see that module).  One
batched array pass already covers every starting point and returns
columns, a :class:`~.batch_replay.ReplayBatch`;
:meth:`MonteCarloSummary.from_results` reads those columns, so no
per-start :class:`~.results.RunResult` is built unless a caller indexes
the batch.  Both entry points replay in the calling process: splitting
the starts over worker processes measured slower than serial at every
size (EXPERIMENTS.md, "Monte-Carlo replay back in-process").
Parallelism lives one level up, over whole backtest cells and whole
experiments (DESIGN.md §12).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS
from ..core.problem import Decision, Problem
from ..errors import TraceError
from ..market.history import SpotPriceHistory
from .batch_replay import ReplayBatch, replay_batch
from .replay import decision_horizon
from .results import MonteCarloSummary


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
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> MonteCarloSummary:
    """Expected cost/time of ``decision`` over random starting points.

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
        results = replay_batch(
            problem, decision, history, starts, horizon=horizon,
            semantics=semantics, billing=billing,
            account_storage=account_storage,
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
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> ReplayBatch:
    """Raw replay results (for distribution plots and variance studies)."""
    starts = sample_start_times(
        problem, decision, history, n_samples, rng, horizon, t_min
    )
    return replay_batch(
        problem, decision, history, starts, horizon=horizon,
        semantics=semantics, billing=billing,
        account_storage=account_storage,
    )
