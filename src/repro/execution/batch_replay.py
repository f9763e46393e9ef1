"""Vectorised trace replay over many starting points: the replay engine.

Every replay — one start (:func:`repro.execution.replay.replay_decision`)
or a Monte-Carlo batch — runs here.  Monte-Carlo evaluation replays the
*same decision* from hundreds of starting points, so the per-(trace,
bid) next-launch / next-death segment indices are built once per batch
(:func:`.kernels.trace_tables`) and every start is resolved with a
``searchsorted`` — all launches, deaths, progress computations and the
completion cut-back pass become array operations over the whole batch.

Both spot semantics are batched: the single-shot kernel resolves each
group's one launch/death per start in a single array pass, and the
persistent kernel iterates relaunch *rounds* level by level — each round
advances every still-active sample one launch/death/progress step as
array operations, so the Python iteration count is the maximum number of
relaunches of any sample, not the number of samples.

The arithmetic mirrors the scalar replay it replaced operation for
operation (same IEEE ops in the same order; every run window of a
group is billed by one :func:`~.kernels.billed_cost_batch` call, which
is bitwise equal to :func:`repro.cloud.spot.billed_spot_cost` per
window), so the results — including the per-group records, hourly
billing, checkpoint-storage accounting and the cost ledger — are
bit-identical to a sequential per-start walk.  That scalar engine
survives as the parity oracle ``tests/oracles/scalar_replay.py``.

Results stay columnar: :func:`replay_window_batch` returns a
:class:`WindowBatch` and :func:`replay_batch` a :class:`ReplayBatch`,
one array per field.  A per-start :class:`~.results.RunResult` (or
:class:`~.replay.WindowOutcome`) is built only when the batch is
indexed or iterated — or, with auditing on, for every start
before :func:`replay_batch` returns, so :func:`observe_result` sees
every result.  :func:`replay_window_batch` runs the same kernels over
per-element windows and per-sample remaining work for the adaptive
executor.  See DESIGN.md §8 for the kernel-layer contract.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS, CostLedger
from ..core.ckpt_math import checkpoints_completed, total_wall
from ..core.problem import Decision, Problem
from ..errors import ConfigurationError, TraceError
from ..market.history import SpotPriceHistory
from .kernels import (
    billed_cost_batch,
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
class GroupColumns:
    """One group's replay outcome across all starts, as arrays."""

    launched: np.ndarray  # bool
    launch: np.ndarray  # launch time (garbage where not launched)
    end: np.ndarray
    terminated: np.ndarray  # bool
    completed: np.ndarray  # bool
    productive: np.ndarray
    saved: np.ndarray
    n_ckpt: np.ndarray
    cost: np.ndarray  # spot dollars for all of the group's instances


def _run_group_batch(
    ctx: _GroupCtx,
    t0: np.ndarray,
    t1: np.ndarray,
    work: Optional[np.ndarray] = None,
    billing: BillingPolicy = CONTINUOUS,
) -> GroupColumns:
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
    bill = np.flatnonzero(launched & (end > launch))
    cost[bill] = billed_cost_batch(
        ctx.trace, launch[bill], np.minimum(end[bill], ctx.trace.end_time),
        terminated[bill], billing,
    ) * spec.n_instances
    return GroupColumns(
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
) -> GroupColumns:
    """Array version of the scalar persistent group walk.

    The scalar drives one sample through its relaunch rounds with a
    ``while`` loop; here each iteration advances *every* still-active
    sample one round — launch lookup, death lookup, progress and the
    died / survived-to-boundary / completed split all as array
    operations.  Samples leave the active set as they finish, so the
    Python-level iteration count is ``max_i rounds(i)``, typically a
    handful.  Per-round state updates replicate the scalar ordering
    exactly; each round bills all its run windows in one
    ``billed_cost_batch`` call and adds them in round order per sample,
    as the scalar adds its per-round ``billed_spot_cost`` calls.
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
        b = np.flatnonzero(run_end > lj)
        cost[j[b]] += billed_cost_batch(
            trace, lj[b], np.minimum(run_end[b], trace.end_time), died[b],
            billing,
        ) * spec.n_instances
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

    return GroupColumns(
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


#: ``completed_by`` code of a run the on-demand fallback finished; a
#: spot completion carries the finishing group's decision position.
ONDEMAND = -1


@dataclass(eq=False)
class WindowBatch(Sequence):
    """:func:`replay_window_batch`'s result: one array per field.

    ``groups[g]`` holds decision group ``g``'s columns; the other
    columns have one element per window.  Indexing builds the
    :class:`WindowOutcome` the scalar oracle returns for that window.
    """

    ctxs: Sequence[_GroupCtx]
    groups: Sequence[GroupColumns]
    horizon: np.ndarray  # completion time where a group completed, else t1
    winner: np.ndarray  # decision position of the completing group, or -1
    cost: np.ndarray  # spot dollars, summed over groups in decision order
    gained_fraction: np.ndarray  # 1.0 where a group completed
    all_dead_at: np.ndarray  # NaN unless every group died without completing

    @property
    def completed(self) -> np.ndarray:
        return self.winner >= 0

    def __len__(self) -> int:
        return self.horizon.size

    def __getitem__(self, i: int) -> WindowOutcome:
        i = range(len(self))[i]
        w = int(self.winner[i])
        dead_at = float(self.all_dead_at[i])
        return WindowOutcome(
            records=self.records(i),
            cost=float(self.cost[i]),
            completed=w >= 0,
            completed_key=str(self.ctxs[w].spec.key) if w >= 0 else None,
            completion_time=float(self.horizon[i]) if w >= 0 else None,
            gained_fraction=float(self.gained_fraction[i]),
            all_dead_at=None if np.isnan(dead_at) else dead_at,
        )

    def records(self, i: int) -> tuple[GroupRunRecord, ...]:
        """Window ``i``'s per-group records, in decision order."""
        horizon = float(self.horizon[i])
        recs = []
        for ctx, run in zip(self.ctxs, self.groups):
            launched = bool(run.launched[i])
            recs.append(
                GroupRunRecord(
                    key=ctx.spec.key,
                    bid=ctx.bid,
                    interval=ctx.interval,
                    launched=launched,
                    launch_time=float(run.launch[i]) if launched else None,
                    end_time=float(run.end[i]) if launched else horizon,
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
) -> WindowBatch:
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
        return WindowBatch(
            ctxs=(), groups=(), horizon=t1, winner=np.full(t0.size, -1),
            cost=np.zeros(t0.size), gained_fraction=np.zeros(t0.size),
            all_dead_at=t0,
        )
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
    any_comp = np.isfinite(t_done)
    winner = np.where(any_comp, comp_end.argmin(axis=0), -1)  # first on ties
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

    # Per-window totals, folded group by group in decision order as the
    # scalar's sum()/max() over the records do.
    horizon = np.where(any_comp, t_done, t1)
    cost = np.zeros(t0.size)
    gained = np.zeros(t0.size)
    dead_at = np.full(t0.size, -np.inf)
    alive = np.zeros(t0.size, dtype=bool)
    for g, (ctx, run) in enumerate(zip(ctxs, runs)):
        cost = cost + run.cost
        work_g = ctx.work if works is None else works[g]
        gained = np.maximum(gained, run.saved / work_g)
        dead_at = np.maximum(dead_at, np.where(run.launched, run.end, horizon))
        alive |= ~run.terminated
    return WindowBatch(
        ctxs=ctxs,
        groups=runs,
        horizon=horizon,
        winner=winner,
        cost=cost,
        gained_fraction=np.where(any_comp, 1.0, gained),
        all_dead_at=np.where(any_comp | alive, np.nan, dead_at),
    )


@dataclass(eq=False)
class ReplayBatch(Sequence):
    """:func:`replay_batch`'s result: one array per :class:`RunResult`
    field, one element per start.

    ``completed_by`` holds the finishing group's decision position, or
    :data:`ONDEMAND`; ``spot_cost`` / ``ondemand_cost`` /
    ``storage_cost`` are the ledger totals by category; ``groups[g]``
    holds decision group ``g``'s columns.  ``batch[i]`` builds start
    ``i``'s :class:`RunResult`, records and ledger text included, once,
    and hands it through :func:`observe_result`.
    """

    problem: Problem
    decision: Decision
    history: SpotPriceHistory
    billing: BillingPolicy
    semantics: str
    account_storage: bool
    start_time: np.ndarray
    cost: np.ndarray
    makespan: np.ndarray
    completed_by: np.ndarray
    ondemand_hours: np.ndarray
    spot_cost: np.ndarray
    ondemand_cost: np.ndarray
    storage_cost: np.ndarray
    recovery_ratio: np.ndarray  # work share the on-demand fallback reran
    window: Optional[WindowBatch]  # None for a decision without spot groups

    def __post_init__(self) -> None:
        self._results: list = [None] * self.start_time.size

    @property
    def groups(self) -> Sequence[GroupColumns]:
        return () if self.window is None else self.window.groups

    @property
    def spot_completed(self) -> np.ndarray:
        return self.completed_by >= 0

    @property
    def ondemand_completed(self) -> np.ndarray:
        return self.completed_by == ONDEMAND

    def __len__(self) -> int:
        return self.start_time.size

    def __eq__(self, other) -> bool:
        """Equal when the materialised results are, as for lists."""
        if isinstance(other, (ReplayBatch, list)):
            return list(self) == list(other)
        return NotImplemented

    def __getitem__(self, i: int) -> RunResult:
        i = range(len(self))[i]
        result = self._results[i]
        if result is None:
            result = self._results[i] = (
                self._ondemand_result(i) if self.window is None
                else self._spot_result(i)
            )
        return result

    def _observed(self, result: RunResult) -> RunResult:
        return observe_result(
            result, self.problem, self.decision, self.history, self.billing,
            self.semantics, self.account_storage,
        )

    def _ondemand_result(self, i: int) -> RunResult:
        ondemand = self.problem.ondemand_options[self.decision.ondemand_index]
        ledger = CostLedger()
        ledger.add(
            "ondemand", f"full run on {ondemand.itype.name}",
            float(self.ondemand_cost[i]),
        )
        return self._observed(
            RunResult(
                start_time=float(self.start_time[i]),
                cost=float(self.cost[i]),
                makespan=float(self.makespan[i]),
                completed_by="ondemand",
                ondemand_hours=float(self.ondemand_hours[i]),
                group_records=(),
                ledger=ledger,
            )
        )

    def _spot_result(self, i: int) -> RunResult:
        records = self.window.records(i)
        ledger = CostLedger()
        for rec in records:
            ledger.add("spot", f"{rec.key} bid=${rec.bid:.4f}", rec.spot_cost)
        code = int(self.completed_by[i])
        if code == ONDEMAND:
            ondemand = self.problem.ondemand_options[self.decision.ondemand_index]
            ledger.add(
                "ondemand",
                f"recovery of {float(self.recovery_ratio[i]):.2%} "
                f"on {ondemand.itype.name}",
                float(self.ondemand_cost[i]),
            )
            completed_by = "ondemand"
        else:
            completed_by = str(self.window.ctxs[code].spec.key)
        storage = float(self.storage_cost[i])
        if storage > 0:
            ledger.add("storage", "checkpoint images", storage)
        return self._observed(
            RunResult(
                start_time=float(self.start_time[i]),
                cost=float(self.cost[i]),
                makespan=float(self.makespan[i]),
                completed_by=completed_by,
                ondemand_hours=float(self.ondemand_hours[i]),
                group_records=records,
                ledger=ledger,
            )
        )


def replay_batch(
    problem: Problem,
    decision: Decision,
    history: SpotPriceHistory,
    starts: np.ndarray,
    horizon: Optional[float] = None,
    semantics: str = "single-shot",
    billing: BillingPolicy = CONTINUOUS,
    account_storage: bool = False,
) -> ReplayBatch:
    """Replay ``decision`` from every start in ``starts`` (the semantics
    of :func:`repro.execution.replay.replay_decision`, per start), with
    the trace scans batched across starts.  A decision without spot
    groups is a full on-demand run from each start.

    With auditing on, every result is built and audited before this
    returns, in start order; otherwise results are built only when
    indexed.
    """
    if semantics not in SEMANTICS:
        raise ConfigurationError(
            f"unknown semantics {semantics!r}; known: {SEMANTICS}"
        )
    starts = np.asarray(starts, dtype=float)
    n = starts.size
    metrics = obs.get_metrics()
    metrics.inc("replay.batch_runs")
    metrics.inc("replay.batch_starts", n)
    if decision.groups:
        columns = _spot_columns(
            problem, decision, history, starts, horizon,
            semantics == "persistent", billing, account_storage,
        )
    else:
        ondemand = problem.ondemand_options[decision.ondemand_index]
        columns = dict(
            cost=np.full(n, ondemand.full_run_cost),
            makespan=np.full(n, ondemand.exec_time),
            completed_by=np.full(n, ONDEMAND),
            ondemand_hours=np.full(n, ondemand.exec_time),
            spot_cost=np.zeros(n),
            ondemand_cost=np.full(n, ondemand.full_run_cost),
            storage_cost=np.zeros(n),
            recovery_ratio=np.ones(n),
            window=None,
        )
    batch = ReplayBatch(
        problem=problem, decision=decision, history=history, billing=billing,
        semantics=semantics, account_storage=account_storage,
        start_time=starts, **columns,
    )
    if obs.audit_enabled():
        list(batch)  # build and observe every result now, in start order
    return batch


def _spot_columns(
    problem, decision, history, starts, horizon, persistent, billing,
    account_storage,
) -> dict:
    """:class:`ReplayBatch` columns of a decision with spot groups."""
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

    window = replay_window_batch(
        problem, decision, history, starts, t1,
        persistent=persistent, billing=billing,
    )
    done = window.completed

    # On-demand recovery from the best checkpoint (Formula 7), for the
    # starts no spot group finished.
    ratio = np.ones(starts.size)
    for gd, run in zip(decision.groups, window.groups):
        spec = problem.groups[gd.group_index]
        r = (spec.exec_time - run.saved + spec.recovery_overhead) / spec.exec_time
        clipped = np.maximum(0.0, np.minimum(1.0, r))
        ratio = np.where(run.saved > 0, np.minimum(ratio, clipped), ratio)
    ondemand = problem.ondemand_options[decision.ondemand_index]
    od_start = np.where(np.isnan(window.all_dead_at), t1, window.all_dead_at)
    od_hours = np.where(done, 0.0, ratio * ondemand.exec_time)
    od_cost = np.where(done, 0.0, od_hours * ondemand.fleet_rate)
    run_end = np.where(done, window.horizon, od_start + od_hours)

    storage = np.zeros(starts.size)
    if account_storage:
        for i in range(starts.size):
            storage[i] = checkpoint_storage_cost(
                problem, decision, window.records(i), float(run_end[i])
            )
    return dict(
        cost=np.where(done, window.cost, window.cost + od_cost) + storage,
        makespan=np.where(
            done, window.horizon - starts, (od_start - starts) + od_hours
        ),
        completed_by=np.where(done, window.winner, ONDEMAND),
        ondemand_hours=od_hours,
        spot_cost=window.cost,
        ondemand_cost=od_cost,
        storage_cost=storage,
        recovery_ratio=ratio,
        window=window,
    )
