"""Time-travel backtest harness (DESIGN.md §11).

The paper's central claim is that a plan chosen from a price-history
model stays near-optimal on *future* prices.  This harness tests exactly
that, the way replay simulations score forecasting systems: partition
the history into plan/holdout windows (:mod:`repro.core.windows`), let
the planner see only the plan window, then replay its decision over the
untouched holdout window and compare what the model *predicted* (cost,
time, deadline-miss probability, per-group failure probabilities)
against what the replays *realized*.

Holdout isolation is structural, not advisory: the planner is handed a
history object containing only plan-window slices, so holdout prices are
unreadable during planning (``tests/test_backtest.py`` proves it by
poisoning the holdout region and checking the plans are unchanged).
Cached tables can never leak across the wall either — planner caches and
the on-disk artifact store key by trace *content*, and the plan/holdout
slices have disjoint content by construction.

Everything is deterministic given (seed, manifest): random streams are
derived statelessly from the seed and the (window, app, deadline) cell,
so a manifest re-run — same process or fresh — is bit-identical.  That
same property makes the grid embarrassingly parallel.  Work is cut
into (window, app) chunks, each running its deadlines in order and
sharing one failure-model dict; ``run_backtest(jobs=N)`` fans whole
chunks out over the persistent shared
:class:`~repro.execution.pool.WorkerPool` and flattens their cells in
grid order, so ``jobs=1`` and ``jobs=N`` reports are bit-identical
(``tests/test_worker_pool.py`` holds this down).

A cell needs only its own window's prices, so the parent splits each
window once (:func:`~repro.core.windows.split_history`) and every chunk
of that window, serial or pooled, gets the same ``(plan, holdout)``
pair: pooled chunks receive it pickled as ordinary task arguments, and
each worker derives its cells' streams from (seed, cell) exactly as
the serial loop does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..core.chance import miss_probability
from ..core.ckpt_math import total_wall
from ..core.cost_model import GroupOutcome
from ..core.optimizer import SompiOptimizer, SompiPlan, build_failure_models
from ..core.problem import Problem
from ..core.windows import (
    BacktestManifest,
    BacktestWindow,
    manifest_trace_hashes,
    split_history,
    split_windows,
)
from ..errors import ConfigurationError
from ..execution.montecarlo import replay_many
from ..execution.pool import WorkerPool, resolve_jobs
from ..execution.replay import decision_horizon
from ..execution.results import MonteCarloSummary
from ..market.failure import FailureModel
from ..market.history import MarketKey, SpotPriceHistory
from ..sim.rng import RngRegistry

__all__ = [
    "BacktestReport",
    "GroupCalibrationPoint",
    "WindowResult",
    "build_manifest",
    "plan_window",
    "run_backtest",
]

#: Samples drawn from the model's joint outcome distribution for the
#: predicted deadline-miss probability (deterministic: seeded stream).
MISS_PROBABILITY_SAMPLES = 4096

#: Re-plan trigger thresholds: realized mean cost more than 25% over the
#: prediction, or realized miss rate more than 10 points over the
#: predicted miss probability, flags the window for re-planning.
REPLAN_COST_OVERRUN = 0.25
REPLAN_MISS_MARGIN = 0.10


@dataclass(frozen=True)
class GroupCalibrationPoint:
    """Predicted vs realized out-of-bid failure for one planned group."""

    window: int
    app: str
    deadline_name: str
    market: str
    bid: float  # dollars per instance-hour
    predicted_failure: float  # plan-model P(out-of-bid within the wall)
    realized_failure: float  # holdout fraction of launched replays dying
    n_replays: int  # launched replays backing the realized rate


@dataclass(frozen=True)
class WindowResult:
    """Realized vs predicted outcome of one (window, app, deadline) cell."""

    window: BacktestWindow
    app: str
    deadline_name: str
    deadline_hours: float
    used_spot: bool
    predicted_cost: float
    predicted_time_hours: float
    predicted_miss: float
    realized_cost: float
    realized_time_hours: float
    realized_miss: float
    spot_completion_rate: float
    calibration: Tuple[GroupCalibrationPoint, ...]
    triggers: Tuple[str, ...]


@dataclass(frozen=True)
class BacktestReport:
    """Everything one backtest produced, manifest included."""

    manifest: BacktestManifest
    results: Tuple[WindowResult, ...]

    def calibration_points(self) -> List[GroupCalibrationPoint]:
        return [p for r in self.results for p in r.calibration]

    def calibration_bins(self, n_bins: int = 10) -> List[dict]:
        """Predicted-vs-realized failure frequency, binned by decile.

        Each point is weighted by the number of launched replays behind
        its realized rate, so a bin's ``realized`` is the actual failure
        frequency over every replay that landed in it.  Perfectly
        calibrated predictions put ``realized`` on the diagonal
        (``realized == predicted``) in every bin.
        """
        if n_bins < 1:
            raise ConfigurationError(f"n_bins must be >= 1, got {n_bins}")
        points = self.calibration_points()
        bins: List[dict] = []
        for b in range(n_bins):
            lo = b / n_bins
            hi = (b + 1) / n_bins
            members = [
                p
                for p in points
                if lo <= p.predicted_failure < hi
                # reprolint: disable=R005 -- exact boundary sentinel: the closed top of the last half-open bin, not a computed float comparison
                or (b == n_bins - 1 and p.predicted_failure == 1.0)
            ]
            weight = sum(p.n_replays for p in members)
            if members and weight > 0:
                predicted = sum(
                    p.predicted_failure * p.n_replays for p in members
                ) / weight
                realized = sum(
                    p.realized_failure * p.n_replays for p in members
                ) / weight
            else:
                predicted = realized = 0.0
            bins.append(
                {
                    "bin_lo": lo,
                    "bin_hi": hi,
                    "n_points": len(members),
                    "n_replays": weight,
                    "predicted": predicted,
                    "realized": realized,
                }
            )
        return bins

    def trigger_rows(self) -> List[dict]:
        """The re-plan trigger log: one row per fired trigger."""
        rows = []
        for r in self.results:
            for trig in r.triggers:
                if trig == "cost-overrun":
                    predicted, realized = r.predicted_cost, r.realized_cost
                else:
                    predicted, realized = r.predicted_miss, r.realized_miss
                rows.append(
                    {
                        "window": r.window.index,
                        "app": r.app,
                        "deadline": r.deadline_name,
                        "trigger": trig,
                        "predicted": predicted,
                        "realized": realized,
                    }
                )
        return rows


# ----------------------------------------------------------------------
# Manifest construction
# ----------------------------------------------------------------------
def build_manifest(
    env,
    n_windows: int,
    plan_hours: float,
    holdout_hours: float,
    apps: Sequence[str],
    deadline_factors: Sequence[Tuple[str, float]],
    n_samples: int,
    stride_hours: Optional[float] = None,
) -> BacktestManifest:
    """A manifest tiling the env's common trace window.

    The window grid covers the intersection of every market's trace
    window, so each window slices cleanly out of every trace.  The
    engine fingerprint is stamped at build time; :func:`run_backtest`
    does not check it (code drift is visible by diffing manifests), but
    trace hashes *are* checked — running a manifest over different data
    is an error, not a silent re-interpretation.
    """
    from ..execution.artifacts import engine_fingerprint

    lo: Optional[float] = None
    hi: Optional[float] = None
    for _key, trace in env.history.items():
        lo = trace.start_time if lo is None else max(lo, trace.start_time)
        hi = trace.end_time if hi is None else min(hi, trace.end_time)
    if lo is None or hi is None:
        raise ConfigurationError("cannot backtest an empty history")
    windows = split_windows(
        lo, hi, n_windows, plan_hours, holdout_hours, stride_hours
    )
    return BacktestManifest(
        seed=env.seed,
        engine_fingerprint=engine_fingerprint(),
        plan_hours=plan_hours,
        holdout_hours=holdout_hours,
        stride_hours=holdout_hours if stride_hours is None else stride_hours,
        n_samples=n_samples,
        apps=tuple(apps),
        deadline_factors=tuple(deadline_factors),
        windows=windows,
        trace_hashes=manifest_trace_hashes(env.history),
    )


# ----------------------------------------------------------------------
# Planning and replay of one cell
# ----------------------------------------------------------------------
def plan_window(
    problem: Problem,
    plan_history: SpotPriceHistory,
    config,
    models: Optional[Dict[MarketKey, FailureModel]] = None,
) -> Tuple[SompiPlan, Mapping[MarketKey, FailureModel]]:
    """Plan one problem from one plan window's history, nothing else.

    The single seam between the harness and the planner: the failure
    models (the only consumer of price history during planning) are
    built from ``plan_history`` alone.  Returned models back the
    predicted-failure calibration points.

    ``models`` is an optional per-window dict keyed by market that this
    call fills on demand: the cells of one (window, app) chunk pass the
    same dict, so each market is fitted once per chunk and every cell
    after the first reuses the model, its memo and the planner tables
    cached with it.  A model is a pure function of its market's plan
    slice, so sharing one cannot change a plan.
    """
    if models is None:
        models = {}
    with obs.get_metrics().timer("backtest.plan"):
        if any(spec.key not in models for spec in problem.groups):
            fitted = build_failure_models(
                problem, plan_history, step_hours=config.time_step_hours
            )
            for key, model in fitted.items():
                models.setdefault(key, model)
        plan = SompiOptimizer(problem, models, config).plan()
    return plan, models


def _predicted_miss(
    problem: Problem,
    plan: SompiPlan,
    models: Mapping[MarketKey, FailureModel],
    step_hours: float,
    rng: np.random.Generator,
) -> float:
    """Model-predicted ``P(Time > Deadline)`` for the chosen decision."""
    if not plan.decision.groups:
        # Pure on-demand: the selected option meets the deadline by
        # construction, there is no stochastic failure time.
        return 0.0
    outcomes = [
        GroupOutcome.build(
            problem.groups[gd.group_index],
            gd.bid,
            gd.interval,
            models[problem.groups[gd.group_index].key],
            step_hours,
        )
        for gd in plan.decision.groups
    ]
    return miss_probability(
        outcomes,
        plan.ondemand,
        problem.deadline,
        n_samples=MISS_PROBABILITY_SAMPLES,
        rng=rng,
    )


def _group_calibration(
    window: BacktestWindow,
    app: str,
    deadline_name: str,
    problem: Problem,
    plan: SompiPlan,
    models: Mapping[MarketKey, FailureModel],
    step_hours: float,
    replays,
) -> Tuple[GroupCalibrationPoint, ...]:
    """One calibration point per planned group.

    Predicted: the plan-window model's probability of an out-of-bid
    failure within the group's failure-free wall time.  Realized: the
    fraction of launched holdout replays in which the group actually
    died out-of-bid.  Groups that never launched contribute no point
    (there is no realized frequency to compare).
    """
    points = []
    for gd in plan.decision.groups:
        spec = problem.groups[gd.group_index]
        model = models[spec.key]
        effective = min(gd.interval, spec.exec_time)
        wall = total_wall(spec.exec_time, effective, spec.checkpoint_overhead)
        horizon_steps = max(1, int(math.ceil(wall / step_hours)))
        predicted = float(
            model.failure_pmf(float(gd.bid), horizon_steps)[:-1].sum()
        )
        key_str = str(spec.key)
        launched = 0
        died = 0
        for other, cols in zip(plan.decision.groups, replays.groups):
            if str(problem.groups[other.group_index].key) == key_str:
                launched += int(np.count_nonzero(cols.launched))
                died += int(np.count_nonzero(cols.launched & cols.terminated))
        if launched == 0:
            continue
        points.append(
            GroupCalibrationPoint(
                window=window.index,
                app=app,
                deadline_name=deadline_name,
                market=key_str,
                bid=float(gd.bid),
                predicted_failure=predicted,
                realized_failure=died / launched,
                n_replays=launched,
            )
        )
    return tuple(points)


def _run_cell(
    plan_history: SpotPriceHistory,
    holdout_history: SpotPriceHistory,
    config,
    rng: RngRegistry,
    n_samples: int,
    window: BacktestWindow,
    app: str,
    deadline_name: str,
    problem: Problem,
    models: Dict[MarketKey, FailureModel],
) -> WindowResult:
    """Plan on the window's past, replay on its future, compare.

    Pure compute given its arguments: every random stream derives
    statelessly from ``rng``'s seed and the cell identity, so a worker
    process handed the same (window slices, config, seed, cell)
    produces the bit-identical :class:`WindowResult` the serial loop
    would.  ``models`` is the chunk's failure-model dict
    (:func:`plan_window` fills it).  The cell counters are the
    caller's job (:func:`run_backtest`) so serial and parallel runs count
    them in the parent process.
    """
    metrics = obs.get_metrics()
    stream = f"backtest:{window.index}:{app}:{deadline_name}"
    plan, models = plan_window(problem, plan_history, config, models)
    predicted_miss = _predicted_miss(
        problem,
        plan,
        models,
        config.time_step_hours,
        rng.fresh(f"{stream}:miss"),
    )
    if plan.decision.groups:
        horizon = decision_horizon(problem, plan.decision)
        if horizon >= window.holdout_hours:
            raise ConfigurationError(
                f"holdout window of {window.holdout_hours:g} h cannot fit a "
                f"{horizon:.3g} h replay horizon for {app}/{deadline_name}; "
                f"increase the holdout (test) span"
            )
    with metrics.timer("backtest.replay"):
        replays = replay_many(
            problem,
            plan.decision,
            holdout_history,
            n_samples,
            rng.fresh(stream),
        )
    summary = MonteCarloSummary.from_results(replays, problem.deadline)
    calibration = _group_calibration(
        window, app, deadline_name, problem, plan, models,
        config.time_step_hours, replays,
    )
    triggers = []
    if summary.mean_cost > plan.expectation.cost * (1.0 + REPLAN_COST_OVERRUN):
        triggers.append("cost-overrun")
    if summary.deadline_miss_rate > predicted_miss + REPLAN_MISS_MARGIN:
        triggers.append("miss-overrun")
    return WindowResult(
        window=window,
        app=app,
        deadline_name=deadline_name,
        deadline_hours=problem.deadline,
        used_spot=plan.used_spot,
        predicted_cost=plan.expectation.cost,
        predicted_time_hours=plan.expectation.time,
        predicted_miss=predicted_miss,
        realized_cost=summary.mean_cost,
        realized_time_hours=summary.mean_time,
        realized_miss=summary.deadline_miss_rate,
        spot_completion_rate=summary.spot_completion_rate,
        calibration=calibration,
        triggers=tuple(triggers),
    )


def _run_chunk(
    plan_history: SpotPriceHistory,
    holdout_history: SpotPriceHistory,
    config,
    rng: RngRegistry,
    n_samples: int,
    window: BacktestWindow,
    app: str,
    deadlines: Sequence[Tuple[str, Problem]],
) -> Iterator[WindowResult]:
    """The cells of one (window, app) chunk, one per deadline, in order.

    The unit of backtest work, serial or pooled.  The chunk's cells plan
    the same markets on the same plan slice, so they share one
    failure-model dict: each market is fitted once per chunk, and the
    planner caches keyed by model identity or by content (group tables,
    subset scores, exact re-evaluations) hit for every deadline after
    the first, in whichever process runs the chunk.  Cells are yielded
    one at a time so :func:`_run_chunk_task` can snapshot each one's
    metrics.
    """
    models: Dict[MarketKey, FailureModel] = {}
    for deadline_name, problem in deadlines:
        yield _run_cell(
            plan_history, holdout_history, config, rng, n_samples,
            window, app, deadline_name, problem, models,
        )


def _run_chunk_task(
    plan_history: SpotPriceHistory,
    holdout_history: SpotPriceHistory,
    seed: int,
    config,
    n_samples: int,
    window: BacktestWindow,
    app: str,
    deadlines: Sequence[Tuple[str, Problem]],
) -> List[Tuple[WindowResult, dict]]:
    """Worker entry point for one chunk, handed its window's slices.

    The worker's metrics registry is reset before each cell and that
    cell's snapshot returned beside its result, so the parent folds
    per-cell planner/replay counters in exactly as the experiments
    runner does, one snapshot per cell.
    """
    out = []
    obs.reset_metrics()
    for result in _run_chunk(
        plan_history, holdout_history, config, RngRegistry(seed),
        n_samples, window, app, deadlines,
    ):
        out.append((result, obs.get_metrics().snapshot()))
        obs.reset_metrics()
    return out


def run_backtest(env, manifest: BacktestManifest, jobs=None) -> BacktestReport:
    """Run the whole manifest over ``env``'s history.

    Deterministic given (env seed, manifest): every random stream is a
    stateless derivation from the seed and the cell identity, and window
    bounds come from the manifest, never from clocks or fresh draws.

    The unit of work is the (window, app) chunk: its cells, one per
    deadline, run in order in one process (:func:`_run_chunk`) and share
    one failure-model dict.  ``jobs=1`` runs the chunks in-process;
    ``jobs=N`` submits one task per chunk to the persistent shared
    worker pool (at most one worker per chunk) and flattens the
    per-cell results in grid order.  Every stream still derives from
    (seed, cell) and every planner cache is pure and keyed by content
    or identity, so the report is bit-identical to ``jobs=1``.

    Each window's history is split once, here; its chunks share that
    ``(plan, holdout)`` pair, which a pooled chunk receives pickled as
    task arguments (once per chunk, not once per cell).
    """
    manifest.check_traces(env.history)
    if manifest.seed != env.seed:
        raise ConfigurationError(
            f"manifest was built for seed {manifest.seed}, env has seed "
            f"{env.seed}; results would not reproduce the manifest's run"
        )
    metrics = obs.get_metrics()
    # Problems depend only on the app catalog (deadlines come from
    # baseline on-demand times), so build each app's once across windows.
    deadlines: Dict[str, List[Tuple[str, Problem]]] = {
        app: [
            (dl_name, env.problem(app, deadline_factor=factor))
            for dl_name, factor in manifest.deadline_factors
        ]
        for app in manifest.apps
    }
    chunks = [
        (window, app) for window in manifest.windows for app in manifest.apps
    ]
    splits = {
        window.index: split_history(env.history, window)
        for window in manifest.windows
    }
    n_jobs = resolve_jobs(jobs, len(chunks))
    results: List[WindowResult] = []
    if n_jobs > 1:
        pool = WorkerPool.shared(n_jobs)
        with metrics.timer("backtest.parallel"):
            gathered = pool.run_ordered(
                _run_chunk_task,
                [
                    (
                        *splits[window.index], env.seed, env.config,
                        manifest.n_samples, window, app, deadlines[app],
                    )
                    for window, app in chunks
                ],
            )
        for chunk in gathered:
            for result, snapshot in chunk:
                metrics.merge_snapshot(snapshot)
                results.append(result)
    else:
        for window, app in chunks:
            results.extend(_run_chunk(
                *splits[window.index], env.config, env.rng,
                manifest.n_samples, window, app, deadlines[app],
            ))
    # Cell counters are counted here, in the parent, so serial and
    # parallel runs count the same.
    for result in results:
        metrics.inc("backtest.cells")
        for _trigger in result.triggers:
            metrics.inc("backtest.replan_triggers")
    for _window in manifest.windows:
        metrics.inc("backtest.windows")
    return BacktestReport(manifest=manifest, results=tuple(results))
