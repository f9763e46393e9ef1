"""Scalar trace-replay engine: the parity oracle of the replay kernels.

One Python walk per (group, start) over the price trace, exactly the
replay of Section 5.1 as first written: pick a starting point, run
every selected circle group against the actual price curve, terminate
groups at out-of-bid events, and fall back to on-demand recovery from
the best checkpoint if everything dies.  Production replays go through
:mod:`repro.execution.batch_replay`; this module exists so the parity
tests (``tests/test_batch_parity.py`` and friends) and the replay
benchmark can demand bit-identical results from the kernels against an
independent, sequential implementation.  It shares the checkpoint
timeline helpers and the result exit point with production
(:mod:`repro.execution.replay`), so its results are audited like the
kernels'.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.billing import BillingPolicy, CONTINUOUS, CostLedger
from repro.cloud.spot import billed_spot_cost, first_at_or_below, first_exceedance
from repro.core.ckpt_math import progress_after_wall, total_wall
from repro.core.problem import Decision, Problem
from repro.errors import ConfigurationError, TraceError
from repro.execution.replay import (
    SEMANTICS,
    WindowOutcome,
    checkpoint_storage_cost,
    decision_horizon,
    observe_result,
)
from repro.execution.results import GroupRunRecord, RunResult
from repro.market.history import SpotPriceHistory


def _run_group_in_window(
    spec,
    bid: float,
    interval: float,
    work: float,
    trace,
    t0: float,
    t1: float,
    billing: BillingPolicy = CONTINUOUS,
) -> GroupRunRecord:
    """Drive one circle group over ``[t0, t1)`` against its trace.

    ``work`` is the productive hours this group still owes (its own time
    scale).  A group alive at ``t1`` banks its full progress — Algorithm
    1 checkpoints the final state at the window boundary.
    """
    need_wall = total_wall(work, min(interval, work), spec.checkpoint_overhead)
    launch = first_at_or_below(trace, bid, t0) if t0 < trace.end_time else None
    if launch is not None and launch >= t1:
        launch = None
    if launch is None:
        return GroupRunRecord(
            key=spec.key,
            bid=bid,
            interval=interval,
            launched=False,
            launch_time=None,
            end_time=t1,
            terminated=True,
            completed=False,
            productive=0.0,
            saved=0.0,
            n_checkpoints=0,
            spot_cost=0.0,
        )
    death = first_exceedance(trace, bid, launch)
    horizon = min(t1, launch + need_wall)
    if death is not None and death <= launch:
        end, terminated = launch, True
    elif death is None or death >= horizon:
        end, terminated = horizon, False
    else:
        end, terminated = death, True
    eff_interval = min(interval, work) if work > 0 else interval
    productive, saved, n_ckpt = progress_after_wall(
        end - launch, work, eff_interval, spec.checkpoint_overhead
    ) if work > 0 else (0.0, 0.0, 0)
    completed = work <= 0 or productive >= work - 1e-9
    if not terminated and not completed:
        # Survived to the window boundary: the adaptive algorithm
        # checkpoints the final state (Algorithm 1 line 22).  That final
        # checkpoint costs one overhead of work time, so the banked
        # progress is what was reached O hours before the boundary — this
        # is what makes very small optimization windows expensive.
        boundary_wall = max(0.0, (end - launch) - spec.checkpoint_overhead)
        banked, _saved2, _n2 = progress_after_wall(
            boundary_wall, work, eff_interval, spec.checkpoint_overhead
        )
        saved = max(saved, banked)
    cost = (
        billed_spot_cost(
            trace, launch, min(end, trace.end_time), terminated, billing
        )
        * spec.n_instances
        if end > launch
        else 0.0
    )
    return GroupRunRecord(
        key=spec.key,
        bid=bid,
        interval=interval,
        launched=True,
        launch_time=launch,
        end_time=end,
        terminated=terminated,
        completed=completed,
        productive=productive,
        saved=saved,
        n_checkpoints=n_ckpt,
        spot_cost=cost,
    )


def _run_group_persistent(
    spec,
    bid: float,
    interval: float,
    work: float,
    trace,
    t0: float,
    t1: float,
    billing: BillingPolicy = CONTINUOUS,
) -> GroupRunRecord:
    """Drive one *persistent* spot request over ``[t0, t1)``.

    The request relaunches after every out-of-bid event, pays the
    recovery overhead when resuming from a checkpoint, and continues
    until the work completes or the window ends.
    """
    eff_interval = min(interval, work) if work > 0 else interval
    saved = 0.0
    total_productive = 0.0
    total_ckpts = 0
    cost = 0.0
    first_launch = None
    now = t0
    currently_dead = True
    end = t1
    completed = work <= 0

    while not completed and now < t1:
        launch = first_at_or_below(trace, bid, now) if now < trace.end_time else None
        if launch is None or launch >= t1:
            end = t1
            currently_dead = True
            break
        if first_launch is None:
            first_launch = launch
        recovery = spec.recovery_overhead if saved > 0 else 0.0
        remaining = work - saved
        need_wall = recovery + total_wall(
            remaining, min(eff_interval, remaining), spec.checkpoint_overhead
        )
        death = first_exceedance(trace, bid, launch)
        horizon = min(t1, launch + need_wall)
        if death is not None and death <= launch:
            now = _advance_past(trace, bid, launch, t1)
            continue
        if death is None or death >= horizon:
            run_end, died = horizon, False
        else:
            run_end, died = death, True
        avail = max(0.0, (run_end - launch) - recovery)
        productive, newly_saved, n_ckpt = progress_after_wall(
            avail, remaining, min(eff_interval, remaining), spec.checkpoint_overhead
        )
        cost += (
            billed_spot_cost(
                trace, launch, min(run_end, trace.end_time), died, billing
            )
            * spec.n_instances
            if run_end > launch
            else 0.0
        )
        total_productive += productive
        total_ckpts += n_ckpt
        completed = productive >= remaining - 1e-9
        if completed:
            saved = work
            end = run_end
            currently_dead = False
            break
        if died:
            saved += newly_saved
            now = run_end
            currently_dead = True
            end = run_end
        else:
            # Survived to the window boundary: bank up to a final
            # boundary checkpoint (one overhead before the boundary).
            boundary = max(0.0, avail - spec.checkpoint_overhead)
            banked, _s, _n = progress_after_wall(
                boundary, remaining, min(eff_interval, remaining), spec.checkpoint_overhead
            )
            saved += max(newly_saved, banked)
            end = run_end
            currently_dead = False
            break

    return GroupRunRecord(
        key=spec.key,
        bid=bid,
        interval=interval,
        launched=first_launch is not None,
        launch_time=first_launch,
        end_time=end,
        terminated=currently_dead,
        completed=completed,
        productive=total_productive,
        saved=min(saved, work),
        n_checkpoints=total_ckpts,
        spot_cost=cost,
    )


def _advance_past(trace, bid: float, t: float, t1: float) -> float:
    """Smallest time > ``t`` where a fresh launch attempt makes sense."""
    death = first_exceedance(trace, bid, t)
    if death is None:
        return t1
    nxt = first_at_or_below(trace, bid, death) if death < trace.end_time else None
    return t1 if nxt is None else nxt


def replay_window(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    t0: float,
    t1: float,
    fraction_done: float = 0.0,
    persistent: bool = False,
    billing: BillingPolicy = CONTINUOUS,
) -> WindowOutcome:
    """Run the decision's groups over ``[t0, t1)``.

    If a group completes, every other group is cut back to the completion
    instant (it would be terminated then) and costs are recomputed.
    ``persistent`` switches the per-group spot semantics (see
    :data:`SEMANTICS`).
    """
    if not 0.0 <= fraction_done <= 1.0:
        raise ConfigurationError(f"fraction_done must be in [0,1], got {fraction_done}")
    if t1 <= t0:
        raise ConfigurationError(f"empty window [{t0}, {t1})")
    if not decision.groups:
        return WindowOutcome((), 0.0, False, None, None, 0.0, t0)
    runner = _run_group_persistent if persistent else _run_group_in_window

    def run_all(horizon: float) -> list[GroupRunRecord]:
        records = []
        for gd in decision.groups:
            spec = problem.groups[gd.group_index]
            work = (1.0 - fraction_done) * spec.exec_time
            trace = history.get(spec.key)
            if trace.end_time < horizon:
                raise TraceError(
                    f"trace for {spec.key} ends at {trace.end_time}, "
                    f"window needs {horizon}"
                )
            records.append(
                runner(
                    spec, gd.bid, gd.interval, work, trace, t0, horizon,
                    billing=billing,
                )
            )
        return records

    records = run_all(t1)
    completions = [
        (r.end_time, i) for i, r in enumerate(records) if r.completed
    ]
    if completions:
        t_done, winner = min(completions)
        if t_done > t0:
            # The winner completed *at* t_done, so rerunning it against
            # the completion-clipped horizon can only degrade its record
            # (float-edge clipping marks it not-completed); keep the
            # first-pass record for the winner and recompute the rest.
            first_pass = records
            records = run_all(t_done)
            records[winner] = first_pass[winner]
        win_spec = problem.groups[decision.groups[winner].group_index]
        return WindowOutcome(
            records=tuple(records),
            cost=sum(r.spot_cost for r in records),
            completed=True,
            completed_key=str(win_spec.key),
            completion_time=t_done,
            gained_fraction=1.0 - fraction_done,
            all_dead_at=None,
        )

    gained = 0.0
    for gd, rec in zip(decision.groups, records):
        spec = problem.groups[gd.group_index]
        gained = max(gained, rec.saved / spec.exec_time)
    any_alive = any(not r.terminated for r in records)
    all_dead_at = None if any_alive else max(r.end_time for r in records)
    return WindowOutcome(
        records=tuple(records),
        cost=sum(r.spot_cost for r in records),
        completed=False,
        completed_key=None,
        completion_time=None,
        gained_fraction=gained,
        all_dead_at=all_dead_at,
    )


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
    """
    if semantics not in SEMANTICS:
        raise ConfigurationError(
            f"unknown semantics {semantics!r}; known: {SEMANTICS}"
        )
    _observe = lambda result: observe_result(  # noqa: E731 — shared exit point
        result, problem, decision, history, billing, semantics, account_storage
    )
    ondemand = problem.ondemand_options[decision.ondemand_index]
    ledger = CostLedger()

    if not decision.groups:
        cost = ondemand.full_run_cost
        ledger.add("ondemand", f"full run on {ondemand.itype.name}", cost)
        return _observe(RunResult(
            start_time=start_time,
            cost=cost,
            makespan=ondemand.exec_time,
            completed_by="ondemand",
            ondemand_hours=ondemand.exec_time,
            group_records=(),
            ledger=ledger,
        ))

    if horizon is None:
        horizon = decision_horizon(problem, decision)
    t1 = start_time + horizon
    for gd in decision.groups:
        t1 = min(t1, history.get(problem.groups[gd.group_index].key).end_time)
    if t1 <= start_time:
        raise TraceError("no trace data at the requested start time")

    window = replay_window(
        problem,
        decision,
        history,
        start_time,
        t1,
        persistent=(semantics == "persistent"),
        billing=billing,
    )
    for rec in window.records:
        ledger.add("spot", f"{rec.key} bid=${rec.bid:.4f}", rec.spot_cost)

    if window.completed:
        storage = 0.0
        if account_storage:
            storage = checkpoint_storage_cost(
                problem, decision, window.records, window.completion_time
            )
            if storage > 0:
                ledger.add("storage", "checkpoint images", storage)
        return _observe(RunResult(
            start_time=start_time,
            cost=window.cost + storage,
            makespan=window.completion_time - start_time,
            completed_by=window.completed_key,
            ondemand_hours=0.0,
            group_records=window.records,
            ledger=ledger,
        ))

    # All groups dead or abandoned: recover on on-demand from the best
    # checkpoint (min Ratio across groups, Formula 7).
    min_ratio = 1.0
    for gd, rec in zip(decision.groups, window.records):
        spec = problem.groups[gd.group_index]
        if rec.saved > 0:
            r = (spec.exec_time - rec.saved + spec.recovery_overhead) / spec.exec_time
            min_ratio = min(min_ratio, max(0.0, min(1.0, r)))
    od_start = window.all_dead_at if window.all_dead_at is not None else t1
    od_hours = min_ratio * ondemand.exec_time
    od_cost = od_hours * ondemand.fleet_rate
    ledger.add(
        "ondemand",
        f"recovery of {min_ratio:.2%} on {ondemand.itype.name}",
        od_cost,
    )
    storage = 0.0
    if account_storage:
        storage = checkpoint_storage_cost(
            problem, decision, window.records, od_start + od_hours
        )
        if storage > 0:
            ledger.add("storage", "checkpoint images", storage)
    return _observe(RunResult(
        start_time=start_time,
        cost=window.cost + od_cost + storage,
        makespan=(od_start - start_time) + od_hours,
        completed_by="ondemand",
        ondemand_hours=od_hours,
        group_records=window.records,
        ledger=ledger,
    ))
