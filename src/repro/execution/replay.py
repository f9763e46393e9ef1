"""Trace replay of one decision (Section 5.1, "Simulation").

The paper evaluates decisions by replaying the recorded spot prices:
pick a starting point, run every selected circle group against the
actual price curve, terminate groups at out-of-bid events, and fall back
to on-demand recovery from the best checkpoint if everything dies.  The
replay engine is :mod:`.batch_replay`, which resolves many starting
points at once; this module holds what every replay shares — the spot
semantics, the window outcome type, the checkpoint timeline and its
storage bill, the replay horizon, the result exit point — plus
:func:`replay_decision`, the single-start entry point.  The timeline
arithmetic is the analytic model's (:mod:`repro.core.ckpt_math`), so
any measured model/simulation gap is genuine model error, not
bookkeeping drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS
from ..core.ckpt_math import total_wall
from ..core.problem import Decision, Problem
from ..market.history import SpotPriceHistory
from .results import GroupRunRecord, RunResult

#: If a group has not even launched after this many multiples of its
#: failure-free wall time, the replay gives up waiting on it.
_LAUNCH_PATIENCE = 3.0

#: Spot semantics for a full replay.  ``single-shot`` (the analytic
#: model's semantics, Section 3): a group terminated by an out-of-bid
#: event stays dead, and when every group is dead the on-demand fallback
#: finishes the job from the best checkpoint.  ``persistent`` (the
#: paper's simulation remark "plus an overhead of recovery when it is
#: restarted"): the spot request persists — when the price falls back
#: under the bid the group relaunches, pays the recovery overhead, and
#: resumes from its last checkpoint.
SEMANTICS = ("single-shot", "persistent")


@dataclass(frozen=True)
class WindowOutcome:
    """Result of running a decision inside one time window."""

    records: tuple[GroupRunRecord, ...]
    cost: float
    completed: bool
    completed_key: Optional[str]
    completion_time: Optional[float]  # absolute hours
    gained_fraction: float  # application fraction banked this window
    all_dead_at: Optional[float]  # when the last group died (None if any survive)


def checkpoint_write_times(
    spec, interval: float, rec: GroupRunRecord, fraction_done: float = 0.0
) -> list[float]:
    """Absolute times at which one replayed group wrote its checkpoints.

    The single source of truth for the stored-image timeline: the replay
    checkpoints every ``min(interval, work) + O`` wall hours — *not* the
    raw decision interval, which drifts from the real schedule whenever
    it exceeds the remaining work (window replays of a nearly-done run).
    The storage accounting and its audit (:mod:`repro.obs`) both derive
    from this list, so they cannot disagree with each other or with the
    replay arithmetic.
    """
    if rec.launch_time is None or rec.n_checkpoints <= 0:
        return []
    work = (1.0 - fraction_done) * spec.exec_time
    eff_interval = min(interval, work) if work > 0 else interval
    cycle = eff_interval + spec.checkpoint_overhead
    return [rec.launch_time + (k + 1) * cycle for k in range(rec.n_checkpoints)]


def checkpoint_storage_cost(
    problem: Problem,
    decision: Decision,
    records: Sequence[GroupRunRecord],
    run_end: float,
    price_per_gb_month: float = 0.03,
    fraction_done: float = 0.0,
) -> float:
    """S3 storage dollars for the checkpoints of one replay.

    Each group's checkpoints land on the :func:`checkpoint_write_times`
    timeline and overwrite the previous image (the paper's scheme); the
    last image persists until the run ends.  Groups with
    ``image_bytes == 0`` are skipped — accounting is opt-in because the
    cost is, as the paper observes, three orders of magnitude below the
    compute bill.  ``fraction_done`` is the work fraction already banked
    before this replay began (window replays of a partially-done run).
    """
    from ..units import BYTES_PER_GB

    hours_per_month = 730.0
    total_gb_hours = 0.0
    for gd, rec in zip(decision.groups, records):
        spec = problem.groups[gd.group_index]
        if spec.image_bytes <= 0:
            continue
        write_times = checkpoint_write_times(spec, gd.interval, rec, fraction_done)
        if not write_times:
            continue
        gb = spec.image_bytes / BYTES_PER_GB
        for k, t_write in enumerate(write_times):
            t_next = write_times[k + 1] if k + 1 < len(write_times) else run_end
            total_gb_hours += gb * max(0.0, t_next - t_write)
    return total_gb_hours * price_per_gb_month / hours_per_month


def decision_horizon(problem: Problem, decision: Decision) -> float:
    """A wall-time budget after which the replay stops waiting on spot.

    Covers the slowest group's failure-free wall time with launch-wait
    patience; used to bound replays and to size Monte-Carlo sampling
    windows.
    """
    ondemand = problem.ondemand_options[decision.ondemand_index]
    if not decision.groups:
        return ondemand.exec_time
    walls = []
    for gd in decision.groups:
        spec = problem.groups[gd.group_index]
        eff = min(gd.interval, spec.exec_time)
        walls.append(total_wall(spec.exec_time, eff, spec.checkpoint_overhead))
    return _LAUNCH_PATIENCE * max(walls) + ondemand.exec_time


def observe_result(
    result: RunResult,
    problem: Problem,
    decision: Decision,
    history: Optional[SpotPriceHistory] = None,
    billing: BillingPolicy = CONTINUOUS,
    semantics: str = "single-shot",
    account_storage: bool = False,
) -> RunResult:
    """In audit mode, verify one finished result; return it unchanged.

    The exit point of every replayed result (the batched replay and
    the scalar parity oracle both hand theirs through here), so the
    audit invariants guard every result.  One flag check when audit is
    off.
    """
    if obs.audit_enabled():
        obs.audit_run_result(
            problem,
            decision,
            result,
            history=history,
            billing=billing,
            semantics=semantics,
            account_storage=account_storage,
        )
    return result


def replay_decision(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    start_time: float,
    horizon: Optional[float] = None,
    semantics: str = "single-shot",
    account_storage: bool = False,
    billing: BillingPolicy = CONTINUOUS,
) -> RunResult:
    """Replay one full hybrid execution from ``start_time``.

    Spot groups run until one completes or all die (or the ``horizon``
    budget runs out — groups alive but unfinished then are abandoned,
    progress intact).  If no group completed, the on-demand fallback
    reruns the remaining fraction from the best checkpoint.  With
    ``semantics="persistent"``, out-of-bid groups relaunch when the price
    allows instead of staying dead (see :data:`SEMANTICS`).
    ``account_storage`` adds the (negligible) S3 checkpoint storage cost
    for groups whose spec declares ``image_bytes``.

    The one-start case of :func:`repro.execution.batch_replay.replay_batch`.
    """
    from .batch_replay import replay_batch  # batch_replay imports this module

    return replay_batch(
        problem, decision, history, np.array([float(start_time)]),
        horizon=horizon, semantics=semantics, billing=billing,
        account_storage=account_storage,
    )[0]
