"""Algorithm 1 — adaptive windowed re-optimization (Section 4.3).

Every ``T_m`` hours the executor refreshes the failure-rate functions
with the just-observed window of spot prices, re-optimizes the decision
for the *remaining* work under the *remaining* deadline, and runs one
more window.  Progress is carried across windows through the best
checkpoint (the application state is checkpointed at every window
boundary, Algorithm 1 line 22).  When the remaining deadline can no
longer absorb another spot window plus the on-demand recovery, the
executor falls back to on-demand for the rest — the deadline guard of
Algorithm 1 lines 6-9.

``refresh_models=False`` gives the paper's w/o-MT ablation: the initial
failure models and decision are kept for the whole run, so drifting spot
distributions go unnoticed.

:meth:`AdaptiveExecutor.run_many` evaluates many starting points in
lockstep: each round plans every still-running sample's next window
(scalar, cache-amortised through the shared planner caches), groups the
samples by the decision they chose, and replays each group's windows as
*one* call into the batched kernels of :mod:`.batch_replay` — threading
the per-sample :class:`~repro.cloud.billing.CostLedger` exactly as the
scalar loop would.  Results are bit-identical to running each sample
through a fresh executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from .. import obs
from ..cloud.billing import BillingPolicy, CONTINUOUS, CostLedger
from ..config import DEFAULT_CONFIG, SompiConfig
from ..core.ondemand_select import select_ondemand
from ..core.optimizer import SompiOptimizer, build_failure_models
from ..core.problem import OnDemandOption, Problem
from ..errors import ConfigurationError, InfeasibleError
from ..market.history import SpotPriceHistory
from .replay import checkpoint_storage_cost

_MAX_WINDOWS = 10_000
_MIN_WORK_FRACTION = 1e-9


@dataclass(frozen=True)
class WindowRecord:
    """One optimization window's outcome."""

    index: int
    t0: float
    t1: float
    fraction_before: float
    fraction_after: float
    cost: float
    used_groups: tuple[str, ...]
    completed: bool


@dataclass(frozen=True)
class AdaptiveResult:
    """Outcome of one adaptive execution.

    ``ledger`` itemises every dollar of ``cost``: one ``spot`` line per
    group per window, the ``ondemand`` fallback line if the deadline
    guard fired, and ``storage`` lines when checkpoint-image accounting
    is on.  ``cost == ledger.total()`` is an audited invariant.
    """

    cost: float
    makespan: float
    completed: bool
    fallback_used: bool
    windows: tuple[WindowRecord, ...]
    deadline: float
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def met_deadline(self) -> bool:
        return self.completed and self.makespan <= self.deadline + 1e-9


def _scaled_problem(problem: Problem, fraction_left: float, deadline: float) -> Problem:
    """The remaining-work sub-problem for one window."""
    groups = tuple(
        dc_replace(g, exec_time=g.exec_time * fraction_left) for g in problem.groups
    )
    options = tuple(
        OnDemandOption(o.itype, o.n_instances, o.exec_time * fraction_left)
        for o in problem.ondemand_options
    )
    return Problem(groups=groups, ondemand_options=options, deadline=deadline)


@dataclass
class _RunState:
    """One sample's mutable execution state inside a batched run.

    Each state is the exact local state of one scalar ``run()`` loop —
    fresh-executor semantics per sample, including per-sample frozen
    models/decision for the w/o-MT ablation.  ``share_frozen`` (set for
    single-sample :meth:`AdaptiveExecutor.run` calls) additionally syncs
    the frozen models with the executor, preserving the historical
    behaviour of repeated ``run()`` calls on one executor.
    """

    start: float
    deadline_abs: float
    now: float
    share_frozen: bool
    done: float = 0.0
    cost: float = 0.0
    index: int = 0
    ledger: CostLedger = field(default_factory=CostLedger)
    windows: list = field(default_factory=list)
    frozen_models: object = None
    frozen_decision: object = None
    result: Optional[AdaptiveResult] = None


@dataclass
class _PendingWindow:
    """A planned window awaiting its (batched) replay."""

    state: _RunState
    sub: Problem
    decision: object
    t1: float
    left: float


class AdaptiveExecutor:
    """Runs one application to completion with Algorithm 1."""

    def __init__(
        self,
        problem: Problem,
        history: SpotPriceHistory,
        config: SompiConfig = DEFAULT_CONFIG,
        training_hours: float = 72.0,
        refresh_models: bool = True,
        semantics: str = "single-shot",
        billing: BillingPolicy = CONTINUOUS,
        account_storage: bool = False,
    ) -> None:
        if training_hours <= 0:
            raise ConfigurationError("training_hours must be > 0")
        if semantics not in ("single-shot", "persistent"):
            raise ConfigurationError(f"unknown semantics {semantics!r}")
        self.problem = problem
        self.history = history
        self.config = config
        self.training_hours = training_hours
        self.refresh_models = refresh_models
        self.semantics = semantics
        self.billing = billing
        self.account_storage = account_storage
        self._frozen_models = None

    # ------------------------------------------------------------------
    def _models_for(self, st: _RunState):
        """Failure models learned from the trailing training window."""
        if not self.refresh_models:
            if st.frozen_models is not None:
                return st.frozen_models
            if st.share_frozen and self._frozen_models is not None:
                st.frozen_models = self._frozen_models
                return st.frozen_models
        t0 = st.now - self.training_hours
        windowed = SpotPriceHistory()
        for spec in self.problem.groups:
            trace = self.history.get(spec.key)
            lo = max(trace.start_time, t0)
            windowed.add(spec.key, trace.slice(lo, st.now))
        models = build_failure_models(
            self.problem, windowed, step_hours=self.config.time_step_hours
        )
        if not self.refresh_models:
            st.frozen_models = models
            if st.share_frozen:
                self._frozen_models = models
        return models

    def run(self, start_time: float) -> AdaptiveResult:
        return self._run_batch([float(start_time)], share_frozen=True)[0]

    def run_many(self, start_times: Sequence[float]) -> list[AdaptiveResult]:
        """Run every starting point; equivalent to a fresh executor's
        ``run()`` per start (bit-identical results in input order), with
        each adaptation step's window replays batched through
        :func:`repro.execution.batch_replay.replay_window_batch`.
        """
        return self._run_batch([float(t) for t in start_times], share_frozen=False)

    def _run_batch(
        self, start_times: list[float], share_frozen: bool
    ) -> list[AdaptiveResult]:
        from .batch_replay import replay_window_batch

        metrics = obs.get_metrics()
        states = []
        for t in start_times:
            metrics.inc("adaptive.runs")
            states.append(
                _RunState(
                    start=t,
                    deadline_abs=t + self.problem.deadline,
                    now=t,
                    share_frozen=share_frozen,
                )
            )
        persistent = self.semantics == "persistent"
        while True:
            # Phase 1 — plan: advance every live sample to its next
            # window's decision (or its finish).  Planning is per-sample
            # but cache-amortised; replay is where the batch pays off.
            pending = []
            for st in states:
                if st.result is None:
                    job = self._begin_window(st)
                    if job is not None:
                        pending.append(job)
            if not pending:
                break
            # Phase 2 — replay: samples that chose the same decision are
            # evaluated as one kernel call over per-sample windows/work.
            by_decision: dict = {}
            for job in pending:
                sig = tuple(
                    (gd.group_index, gd.bid, gd.interval)
                    for gd in job.decision.groups
                )
                by_decision.setdefault(sig, []).append(job)
            for jobs in by_decision.values():
                t0 = np.array([j.state.now for j in jobs])
                t1 = np.array([j.t1 for j in jobs])
                works = np.array(
                    [
                        [j.sub.groups[gd.group_index].exec_time for j in jobs]
                        for gd in jobs[0].decision.groups
                    ]
                )
                outcomes = replay_window_batch(
                    self.problem, jobs[0].decision, self.history, t0, t1,
                    works=works, persistent=persistent, billing=self.billing,
                )
                # Phase 3 — account: thread each outcome through its
                # sample's ledger/windows exactly as the scalar loop.
                for job, outcome in zip(jobs, outcomes):
                    self._apply_window(job, outcome)
        return [st.result for st in states]

    def _begin_window(self, st: _RunState) -> Optional[_PendingWindow]:
        """One window's planning phase; finishes ``st`` or returns the
        pending replay job.  Mirrors Algorithm 1 lines 1-21."""
        if st.index >= _MAX_WINDOWS:
            raise ConfigurationError(
                f"adaptive execution did not converge within {_MAX_WINDOWS} windows"
            )
        problem = self.problem
        left = 1.0 - st.done
        if left <= _MIN_WORK_FRACTION:
            self._finish_state(
                st, makespan=st.now - st.start, completed=True, fallback=False
            )
            return None
        remaining_deadline = st.deadline_abs - st.now

        # Deadline guard (Algorithm 1 lines 6-9): keep enough time to
        # run the rest on the fastest feasible on-demand type.
        try:
            _, od = select_ondemand(
                [
                    OnDemandOption(o.itype, o.n_instances, o.exec_time * left)
                    for o in problem.ondemand_options
                ],
                max(remaining_deadline, 1e-9),
                self.config.slack,
            )
        except InfeasibleError:
            od = min(
                (
                    OnDemandOption(o.itype, o.n_instances, o.exec_time * left)
                    for o in problem.ondemand_options
                ),
                key=lambda o: o.exec_time,
            )
        # Time still available for spot execution before we must hand
        # the remaining work to on-demand to make the deadline.
        spot_time_left = remaining_deadline - od.exec_time
        if spot_time_left < min(self.config.window_hours, 1.0):
            st.cost += od.full_run_cost
            st.ledger.add(
                "ondemand",
                f"deadline fallback of {left:.2%} on {od.itype.name}",
                od.full_run_cost,
            )
            self._finish_state(
                st, makespan=(st.now - st.start) + od.exec_time,
                completed=True, fallback=True,
            )
            return None

        window_len = min(self.config.window_hours, spot_time_left)
        t1 = st.now + window_len
        sub = _scaled_problem(problem, left, remaining_deadline)

        if self.refresh_models or st.frozen_decision is None:
            models = self._models_for(st)
            plan = SompiOptimizer(sub, models, self.config).plan()
            decision = plan.decision
            if not self.refresh_models:
                st.frozen_decision = decision
        else:
            decision = st.frozen_decision

        if not decision.groups:
            # Optimizer says on-demand is the cheapest way to finish.
            od_opt = sub.ondemand_options[decision.ondemand_index]
            st.cost += od_opt.full_run_cost
            st.ledger.add(
                "ondemand",
                f"planned finish of {left:.2%} on {od_opt.itype.name}",
                od_opt.full_run_cost,
            )
            self._finish_state(
                st, makespan=(st.now - st.start) + od_opt.exec_time,
                completed=True, fallback=True,
            )
            return None
        return _PendingWindow(state=st, sub=sub, decision=decision, t1=t1, left=left)

    def _apply_window(self, job: _PendingWindow, outcome) -> None:
        """One window's accounting phase; mirrors Algorithm 1 lines 22-27."""
        st = job.state
        sub, decision, t1, left = job.sub, job.decision, job.t1, job.left
        index = st.index
        st.cost += outcome.cost
        for rec in outcome.records:
            st.ledger.add(
                "spot",
                f"window {index}: {rec.key} bid=${rec.bid:.4f}",
                rec.spot_cost,
            )
        if self.account_storage:
            run_end = outcome.completion_time if outcome.completed else t1
            storage = checkpoint_storage_cost(
                sub, decision, outcome.records, run_end
            )
            if storage > 0:
                st.cost += storage
                st.ledger.add(
                    "storage", f"window {index}: checkpoint images", storage
                )
        used = tuple(
            str(sub.groups[g.group_index].key) for g in decision.groups
        )
        if outcome.completed:
            st.windows.append(
                WindowRecord(
                    index, st.now, t1, st.done, 1.0, outcome.cost, used, True
                )
            )
            self._finish_state(
                st, makespan=outcome.completion_time - st.start,
                completed=True, fallback=False,
            )
            return
        new_done = st.done + outcome.gained_fraction * left
        st.windows.append(
            WindowRecord(
                index, st.now, t1, st.done, new_done, outcome.cost, used, False
            )
        )
        st.done = new_done
        st.now = t1
        st.index += 1

    def _finish_state(
        self, st: _RunState, makespan: float, completed: bool, fallback: bool
    ) -> None:
        st.result = self._finish(
            st.cost, makespan, completed, fallback, st.windows, st.ledger
        )

    def _finish(
        self,
        cost: float,
        makespan: float,
        completed: bool,
        fallback: bool,
        windows: Sequence[WindowRecord],
        ledger: CostLedger,
    ) -> AdaptiveResult:
        obs.get_metrics().inc("adaptive.windows", len(windows))
        result = AdaptiveResult(
            cost=cost,
            makespan=makespan,
            completed=completed,
            fallback_used=fallback,
            windows=tuple(windows),
            deadline=self.problem.deadline,
            ledger=ledger,
        )
        if obs.audit_enabled():
            obs.audit_adaptive_result(result)
        return result
