"""Vectorised trace replay over many starting points: the replay engine.

Every replay — one start (:func:`repro.execution.replay.replay_decision`)
or a Monte-Carlo batch — runs here.  Monte-Carlo evaluation replays the
*same decision* from hundreds of starting points, so the per-(trace,
bid) next-launch / next-death segment indices are precomputed once (and
served from the shared cache in :mod:`.kernels`) and every start is
resolved with a ``searchsorted`` — all launches, deaths, progress
computations and the completion cut-back pass become array operations
over the whole batch.

Both spot semantics are batched: the single-shot kernel resolves each
group's one launch/death per start in a single array pass, and the
persistent kernel iterates relaunch *rounds* level by level — each round
advances every still-active sample one launch/death/progress step as
array operations, so the Python iteration count is the maximum number of
relaunches of any sample, not the number of samples.

The arithmetic mirrors the scalar replay it replaced operation for
operation (same IEEE ops in the same order; each run window's bill is
evaluated with the very same :func:`billed_spot_cost` call), so the
results — including the per-group records, hourly billing,
checkpoint-storage accounting and the cost ledger — are bit-identical
to a sequential per-start walk.  That scalar engine survives as the
parity oracle ``tests/oracles/scalar_replay.py``.
:func:`replay_window_batch` exposes the same kernels over per-element
windows and per-sample remaining work for the adaptive executor.  See
DESIGN.md §8 for the kernel-layer contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS, CostLedger
from ..core.ckpt_math import checkpoints_completed, total_wall
from ..core.problem import Decision, Problem
from ..errors import ConfigurationError, TraceError
from ..market.history import SpotPriceHistory
from .kernels import (
    billed_cost_fast,
    checkpoints_completed_arr,
    progress_after_wall_arr,
    total_wall_arr,
    trace_tables,
)
from .replay import (
    SEMANTICS,
    WindowOutcome,
    checkpoint_storage_cost,
    decision_horizon,
    observe_result,
)
from .results import GroupRunRecord, RunResult

#: Scalar reference for every public kernel; parity is asserted
#: bit-exactly in tests/test_batch_parity.py (coverage:
#: tests/test_kernel_oracles.py).
KERNEL_ORACLES = {
    "replay_window_batch": "tests.oracles.scalar_replay.replay_window",
    "replay_batch": "tests.oracles.scalar_replay.replay_decision",
}


@dataclass
class _GroupCtx:
    """Per-group constants plus the shared precomputed trace tables."""

    spec: object
    bid: float
    interval: float
    work: float
    eff_interval: float
    need_wall: float  # failure-free wall time for the full work
    done_wall: float
    k_done: int  # checkpoints of a completed run
    trace: object
    tables: object  # kernels.TraceBidTables


def _group_ctx(spec, gd, trace) -> _GroupCtx:
    work = spec.exec_time
    eff = min(gd.interval, work)
    return _GroupCtx(
        spec=spec,
        bid=gd.bid,
        interval=gd.interval,
        work=work,
        eff_interval=eff,
        need_wall=total_wall(work, eff, spec.checkpoint_overhead),
        done_wall=total_wall(work, eff, spec.checkpoint_overhead),
        k_done=checkpoints_completed(work, work, eff),
        trace=trace,
        tables=trace_tables(trace, gd.bid),
    )


@dataclass
class _GroupBatch:
    """One group's replay outcome across all starts, as arrays."""

    launched: np.ndarray  # bool
    launch: np.ndarray  # launch time (garbage where not launched)
    end: np.ndarray
    terminated: np.ndarray  # bool
    completed: np.ndarray  # bool
    productive: np.ndarray
    saved: np.ndarray
    n_ckpt: np.ndarray
    cost: np.ndarray


def _run_group_batch(
    ctx: _GroupCtx,
    t0: np.ndarray,
    t1: np.ndarray,
    work: Optional[np.ndarray] = None,
    billing: BillingPolicy = CONTINUOUS,
) -> _GroupBatch:
    """Array version of the scalar single-shot group walk
    (``tests/oracles/scalar_replay.py``) over per-element windows
    ``[t0, t1)``.

    ``work`` optionally carries per-element remaining work (all > 0, the
    adaptive path); without it every element owes the group's full work
    and the precomputed scalar timeline constants apply.
    """
    tb = ctx.tables
    times = tb.times
    n = tb.n_segments
    spec = ctx.spec
    if work is None:
        work_a = ctx.work
        eff = ctx.eff_interval
        need_wall = ctx.need_wall
        done_wall = ctx.done_wall
        k_done: object = ctx.k_done
    else:
        work_a = np.asarray(work, dtype=float)
        if np.any(work_a <= 0.0):
            raise ConfigurationError("batched windows need work > 0 everywhere")
        eff = np.minimum(ctx.interval, work_a)
        done_wall = total_wall_arr(work_a, eff, spec.checkpoint_overhead)
        need_wall = done_wall
        k_done = checkpoints_completed_arr(work_a, work_a, eff)

    k = np.searchsorted(times, t0, side="right") - 1
    below_k = tb.below[k]
    launch_seg = np.where(below_k, k, tb.nxt_below_ext[np.minimum(k + 1, n)])
    launch = np.where(below_k, t0, tb.times_ext[launch_seg])
    launched = launch < t1  # never-launch gives +inf, also excluded here

    death_seg = tb.nxt_above_ext[np.minimum(launch_seg + 1, n)]
    death = tb.times_ext[death_seg]
    # Unlaunched elements carry launch = +inf; pin them to the window
    # start so the arithmetic below stays finite (their outputs are
    # overwritten wholesale at the end).
    launch = np.where(launched, launch, t0)
    horizon = np.minimum(t1, launch + need_wall)
    terminated = death < horizon
    end = np.where(terminated, death, horizon)
    wall = np.maximum(end - launch, 0.0)

    productive, saved, n_ckpt = progress_after_wall_arr(
        wall, work_a, eff, spec.checkpoint_overhead, done_wall, k_done
    )
    completed = productive >= work_a - 1e-9
    bank = np.flatnonzero(launched & ~terminated & ~completed)
    if bank.size:
        boundary_wall = np.maximum(0.0, wall[bank] - spec.checkpoint_overhead)
        sel = lambda v: v if np.isscalar(v) else v[bank]  # noqa: E731
        banked, _s, _n = progress_after_wall_arr(
            boundary_wall, sel(work_a), sel(eff), spec.checkpoint_overhead,
            sel(done_wall), sel(k_done),
        )
        saved[bank] = np.maximum(saved[bank], banked)

    # Unlaunched: dead at the window boundary with nothing gained.
    end = np.where(launched, end, t1)
    terminated = np.where(launched, terminated, True)
    completed = np.where(launched, completed, False)
    productive = np.where(launched, productive, 0.0)
    saved = np.where(launched, saved, 0.0)
    n_ckpt = np.where(launched, n_ckpt, 0)

    cost = np.zeros(t0.size)
    bill_end = np.minimum(end, ctx.trace.end_time)
    for i in np.flatnonzero(launched & (end > launch)):
        cost[i] = (
            billed_cost_fast(
                ctx.trace, float(launch[i]), float(bill_end[i]),
                bool(terminated[i]), billing,
            )
            * spec.n_instances
        )
    return _GroupBatch(
        launched=launched, launch=launch, end=end, terminated=terminated,
        completed=completed, productive=productive, saved=saved,
        n_ckpt=n_ckpt, cost=cost,
    )


def _run_group_persistent_batch(
    ctx: _GroupCtx,
    t0: np.ndarray,
    t1: np.ndarray,
    work: Optional[np.ndarray] = None,
    billing: BillingPolicy = CONTINUOUS,
) -> _GroupBatch:
    """Array version of the scalar persistent group walk.

    The scalar drives one sample through its relaunch rounds with a
    ``while`` loop; here each iteration advances *every* still-active
    sample one round — launch lookup, death lookup, progress and the
    died / survived-to-boundary / completed split all as array
    operations.  Samples leave the active set as they finish, so the
    Python-level iteration count is ``max_i rounds(i)``, typically a
    handful.  Per-round state updates replicate the scalar ordering
    exactly; spot bills accrue through the same per-round
    ``billed_spot_cost`` calls in the same order per sample.
    """
    tb = ctx.tables
    times = tb.times
    n = tb.n_segments
    spec = ctx.spec
    trace = ctx.trace
    O = spec.checkpoint_overhead
    R = spec.recovery_overhead
    size = t0.size
    if work is None:
        work_a = np.full(size, ctx.work)
    else:
        work_a = np.asarray(work, dtype=float)
    if np.any(work_a <= 0.0):
        raise ConfigurationError("batched windows need work > 0 everywhere")
    eff_interval = np.minimum(ctx.interval, work_a)

    saved = np.zeros(size)
    productive_tot = np.zeros(size)
    ckpts_tot = np.zeros(size, dtype=np.int64)
    cost = np.zeros(size)
    first_launch = np.full(size, np.nan)
    now = np.array(t0, dtype=float, copy=True)
    end = np.array(t1, dtype=float, copy=True)
    dead = np.ones(size, dtype=bool)
    completed = np.zeros(size, dtype=bool)
    active = np.ones(size, dtype=bool)

    while True:
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        nw = now[idx]
        # Launch attempt: price <= bid now, else the next below-bid
        # segment (first_at_or_below); +inf when the trace ran out.
        can = nw < trace.end_time
        k = np.minimum(np.searchsorted(times, nw, side="right") - 1, n - 1)
        below_k = tb.below[k]
        seg = np.where(below_k, k, tb.nxt_below_ext[np.minimum(k + 1, n)])
        launch = np.where(below_k, nw, tb.times_ext[seg])
        launch = np.where(can, launch, np.inf)
        miss = launch >= t1[idx]
        if miss.any():
            j = idx[miss]
            end[j] = t1[j]
            dead[j] = True
            active[j] = False
        go = np.flatnonzero(~miss)
        if go.size == 0:
            continue
        j = idx[go]
        lj = launch[go]
        sj = seg[go]
        first_launch[j] = np.where(np.isnan(first_launch[j]), lj, first_launch[j])

        recovery = np.where(saved[j] > 0, R, 0.0)
        remaining = work_a[j] - saved[j]
        eff_r = np.minimum(eff_interval[j], remaining)
        done_wall = total_wall_arr(remaining, eff_r, O)
        need_wall = recovery + done_wall
        # Death: the next above-bid segment strictly after the launch
        # segment (the launch segment itself is at/below the bid, so the
        # scalar's death <= launch branch is unreachable).
        death = tb.times_ext[tb.nxt_above_ext[np.minimum(sj + 1, n)]]
        horizon = np.minimum(t1[j], lj + need_wall)
        died = death < horizon
        run_end = np.where(died, death, horizon)
        avail = np.maximum(0.0, (run_end - lj) - recovery)
        k_done = checkpoints_completed_arr(remaining, remaining, eff_r)
        productive, newly_saved, n_ckpt = progress_after_wall_arr(
            avail, remaining, eff_r, O, done_wall, k_done
        )
        bill_end = np.minimum(run_end, trace.end_time)
        for b in np.flatnonzero(run_end > lj):
            cost[j[b]] += (
                billed_cost_fast(
                    trace, float(lj[b]), float(bill_end[b]), bool(died[b]),
                    billing,
                )
                * spec.n_instances
            )
        productive_tot[j] += productive
        ckpts_tot[j] += n_ckpt
        comp = productive >= remaining - 1e-9

        cj = j[comp]
        saved[cj] = work_a[cj]
        end[cj] = run_end[comp]
        dead[cj] = False
        completed[cj] = True
        active[cj] = False

        dmask = died & ~comp  # relaunch next round from the death time
        dj = j[dmask]
        saved[dj] = saved[dj] + newly_saved[dmask]
        now[dj] = run_end[dmask]
        dead[dj] = True
        end[dj] = run_end[dmask]

        smask = ~died & ~comp  # survived to the window boundary: bank
        if smask.any():
            sjj = j[smask]
            boundary = np.maximum(0.0, avail[smask] - O)
            banked, _s, _n = progress_after_wall_arr(
                boundary, remaining[smask], eff_r[smask], O,
                done_wall[smask], k_done[smask],
            )
            saved[sjj] = saved[sjj] + np.maximum(newly_saved[smask], banked)
            end[sjj] = run_end[smask]
            dead[sjj] = False
            active[sjj] = False

    return _GroupBatch(
        launched=~np.isnan(first_launch),
        launch=first_launch,
        end=end,
        terminated=dead,
        completed=completed,
        productive=productive_tot,
        saved=np.minimum(saved, work_a),
        n_ckpt=ckpts_tot,
        cost=cost,
    )


def _records_at(
    ctxs: Sequence[_GroupCtx], runs: Sequence[_GroupBatch], i: int, t1_i: float
) -> tuple[GroupRunRecord, ...]:
    recs = []
    for ctx, run in zip(ctxs, runs):
        launched = bool(run.launched[i])
        recs.append(
            GroupRunRecord(
                key=ctx.spec.key,
                bid=ctx.bid,
                interval=ctx.interval,
                launched=launched,
                launch_time=float(run.launch[i]) if launched else None,
                end_time=float(run.end[i]) if launched else t1_i,
                terminated=bool(run.terminated[i]),
                completed=bool(run.completed[i]),
                productive=float(run.productive[i]),
                saved=float(run.saved[i]),
                n_checkpoints=int(run.n_ckpt[i]),
                spot_cost=float(run.cost[i]),
            )
        )
    return tuple(recs)


def replay_window_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    t0: np.ndarray,
    t1: np.ndarray,
    works: Optional[np.ndarray] = None,
    persistent: bool = False,
    billing: BillingPolicy = CONTINUOUS,
) -> list[WindowOutcome]:
    """Run the decision's groups over per-element windows
    ``[t0_i, t1_i)``.

    If a group completes, every other group is cut back to the
    completion instant (it would be terminated then) and recomputed.
    ``persistent`` switches the per-group spot semantics (see
    :data:`repro.execution.replay.SEMANTICS`).

    ``works`` optionally carries per-sample remaining work, shaped
    ``(n_groups, n_samples)`` — the adaptive executor's batched step,
    where sample *i*'s scaled sub-problem owes ``works[g, i]`` hours of
    group *g* (``fraction_done`` is folded into ``works`` by the caller,
    so the outcome's ``gained_fraction`` is relative to ``works``).
    Outcomes are bit-identical to the scalar oracle's per-sample
    ``replay_window`` calls on the correspondingly scaled problems.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t1 <= t0):
        i = int(np.flatnonzero(t1 <= t0)[0])
        raise ConfigurationError(f"empty window [{t0[i]}, {t1[i]})")
    if not decision.groups:
        return [
            WindowOutcome((), 0.0, False, None, None, 0.0, float(t))
            for t in t0
        ]
    obs.get_metrics().inc("replay.window_batches")

    ctxs = []
    for g, gd in enumerate(decision.groups):
        spec = problem.groups[gd.group_index]
        trace = history.get(spec.key)
        if np.any(t1 > trace.end_time):
            i = int(np.flatnonzero(t1 > trace.end_time)[0])
            raise TraceError(
                f"trace for {spec.key} ends at {trace.end_time}, "
                f"window needs {t1[i]}"
            )
        if t0.size and t0.min() < trace.start_time:
            bad = t0[t0 < trace.start_time][0]
            raise TraceError(
                f"t0={bad} outside trace window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        ctxs.append(_group_ctx(spec, gd, trace))

    runner = _run_group_persistent_batch if persistent else _run_group_batch
    runs = [
        runner(
            ctx, t0, t1,
            work=None if works is None else works[g],
            billing=billing,
        )
        for g, ctx in enumerate(ctxs)
    ]

    # Completion cut-back (second pass): every other group is clipped
    # to the first completion instant and recomputed.
    comp_end = np.where(
        np.stack([r.completed for r in runs]),
        np.stack([r.end for r in runs]),
        np.inf,
    )
    t_done = comp_end.min(axis=0)
    winner = comp_end.argmin(axis=0)  # first index on ties, like min(tuples)
    any_comp = np.isfinite(t_done)
    rerun = np.flatnonzero(any_comp & (t_done > t0))
    if rerun.size:
        for g, ctx in enumerate(ctxs):
            # The winner completed *at* t_done — its first-pass record is
            # already clipped correctly, and recomputing against the
            # completion horizon can only degrade it at float edges, so
            # only the losing groups are recomputed.
            idx = rerun[winner[rerun] != g]
            if idx.size == 0:
                continue
            sub = runner(
                ctx, t0[idx], t_done[idx],
                work=None if works is None else works[g][idx],
                billing=billing,
            )
            for name in (
                "launched", "launch", "end", "terminated", "completed",
                "productive", "saved", "n_ckpt", "cost",
            ):
                getattr(runs[g], name)[idx] = getattr(sub, name)

    outcomes = []
    for i in range(t0.size):
        horizon_i = float(t_done[i]) if any_comp[i] else float(t1[i])
        records = _records_at(ctxs, runs, i, horizon_i)
        cost = sum(r.spot_cost for r in records)
        if any_comp[i]:
            win_spec = problem.groups[decision.groups[int(winner[i])].group_index]
            outcomes.append(
                WindowOutcome(
                    records=records,
                    cost=cost,
                    completed=True,
                    completed_key=str(win_spec.key),
                    completion_time=float(t_done[i]),
                    gained_fraction=1.0,
                    all_dead_at=None,
                )
            )
            continue
        gained = 0.0
        for g, (ctx, rec) in enumerate(zip(ctxs, records)):
            work_gi = ctx.work if works is None else float(works[g][i])
            gained = max(gained, rec.saved / work_gi)
        any_alive = any(not r.terminated for r in records)
        all_dead_at = None if any_alive else max(r.end_time for r in records)
        outcomes.append(
            WindowOutcome(
                records=records,
                cost=cost,
                completed=False,
                completed_key=None,
                completion_time=None,
                gained_fraction=gained,
                all_dead_at=all_dead_at,
            )
        )
    return outcomes


def replay_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float] = None,
    semantics: str = "single-shot",
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> list[RunResult]:
    """Replay ``decision`` from every start in ``starts`` (the semantics
    of :func:`repro.execution.replay.replay_decision`, per start), with
    the trace scans batched across starts.  A decision without spot
    groups is a full on-demand run from each start."""
    if semantics not in SEMANTICS:
        raise ConfigurationError(
            f"unknown semantics {semantics!r}; known: {SEMANTICS}"
        )
    starts = np.asarray(starts, dtype=float)
    metrics = obs.get_metrics()
    metrics.inc("replay.batch_runs")
    metrics.inc("replay.batch_starts", starts.size)
    ondemand = problem.ondemand_options[decision.ondemand_index]
    if not decision.groups:
        out = []
        for t in starts:
            ledger = CostLedger()
            cost = ondemand.full_run_cost
            ledger.add("ondemand", f"full run on {ondemand.itype.name}", cost)
            out.append(
                observe_result(
                    RunResult(
                        start_time=float(t), cost=cost,
                        makespan=ondemand.exec_time, completed_by="ondemand",
                        ondemand_hours=ondemand.exec_time,
                        group_records=(), ledger=ledger,
                    ),
                    problem, decision, history, billing, semantics,
                    account_storage,
                )
            )
        return out

    if horizon is None:
        horizon = decision_horizon(problem, decision)
    t1 = starts + horizon
    for gd in decision.groups:
        spec = problem.groups[gd.group_index]
        trace = history.get(spec.key)
        if starts.size and (
            starts.min() < trace.start_time or starts.max() >= trace.end_time
        ):
            bad = starts[
                (starts < trace.start_time) | (starts >= trace.end_time)
            ][0]
            raise TraceError(
                f"t0={bad} outside trace window "
                f"[{trace.start_time}, {trace.end_time})"
            )
        t1 = np.minimum(t1, trace.end_time)
    if np.any(t1 <= starts):
        raise TraceError("no trace data at the requested start time")

    outcomes = replay_window_batch(
        problem, decision, history, starts, t1,
        persistent=(semantics == "persistent"), billing=billing,
    )

    out = []
    for i, outcome in enumerate(outcomes):
        t0_i = float(starts[i])
        ledger = CostLedger()
        for rec in outcome.records:
            ledger.add("spot", f"{rec.key} bid=${rec.bid:.4f}", rec.spot_cost)
        if outcome.completed:
            storage = 0.0
            if account_storage:
                storage = checkpoint_storage_cost(
                    problem, decision, outcome.records, outcome.completion_time
                )
                if storage > 0:
                    ledger.add("storage", "checkpoint images", storage)
            result = RunResult(
                start_time=t0_i,
                cost=outcome.cost + storage,
                makespan=outcome.completion_time - t0_i,
                completed_by=outcome.completed_key,
                ondemand_hours=0.0,
                group_records=outcome.records,
                ledger=ledger,
            )
        else:
            # On-demand recovery from the best checkpoint (Formula 7).
            min_ratio = 1.0
            for gd, rec in zip(decision.groups, outcome.records):
                spec = problem.groups[gd.group_index]
                if rec.saved > 0:
                    r = (
                        spec.exec_time - rec.saved + spec.recovery_overhead
                    ) / spec.exec_time
                    min_ratio = min(min_ratio, max(0.0, min(1.0, r)))
            od_start = (
                outcome.all_dead_at
                if outcome.all_dead_at is not None
                else float(t1[i])
            )
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
                    problem, decision, outcome.records, od_start + od_hours
                )
                if storage > 0:
                    ledger.add("storage", "checkpoint images", storage)
            result = RunResult(
                start_time=t0_i,
                cost=outcome.cost + od_cost + storage,
                makespan=(od_start - t0_i) + od_hours,
                completed_by="ondemand",
                ondemand_hours=od_hours,
                group_records=outcome.records,
                ledger=ledger,
            )
        out.append(
            observe_result(
                result, problem, decision, history, billing, semantics,
                account_storage,
            )
        )
    return out
