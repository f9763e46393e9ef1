"""The three SOMPI workloads, driven through the library's public API.

Each workload builds its inputs from the seed, sets up a cold state with
:meth:`setup` (fresh planner caches, a fresh private artifact store) and
runs one *pass* of its fixed request list with :meth:`run_pass`.  The
harness alternates set-up and pass, so every pass starts from the same
state and does the same work.  A pass returns the timed wall, the
per-request latencies and one canonical output string per request; the
outputs are checked after the timed region.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.apps import PAPER_APPS
from repro.backtest import build_manifest, run_backtest
from repro.cloud.billing import CONTINUOUS, HOURLY
from repro.config import DEFAULT_CONFIG
from repro.core.optimizer import SompiOptimizer
from repro.core.two_level import clear_shared_caches
from repro.execution.montecarlo import evaluate_decision_mc
from repro.execution.pool import close_shared_pool
from repro.execution.shm_pool import close_trace_pools, shared_trace_handle
from repro.experiments.env import ExperimentEnv
from repro.experiments.ext_backtest import report_tables


#: Every workload runs on the history of the paper's default seed (the
#: CLI default too).  The workload seed picks the request order and every
#: random stream of the run; it does not pick the market, because how much
#: planning work a market takes varies several-fold from one history to
#: the next, and that would swamp any change the benchmark should see.
HISTORY_SEED = 7


class CheckFailed(Exception):
    """An output that violates one of the benchmark's correctness checks."""


@dataclass
class PassResult:
    wall_s: float
    work: int  # plans, replayed starts or backtest cells
    latencies_ms: list
    outputs: dict  # request id -> canonical output string
    attempted: int
    failed: int
    children_rss_mb: float = 0.0
    snapshot: dict = field(default_factory=dict)  # repro.obs metrics of the pass


def canon(*values) -> str:
    """Exact, platform-stable text of a tuple of results."""
    parts = []
    for v in values:
        if isinstance(v, float):
            parts.append(v.hex())
        elif isinstance(v, (tuple, list)):
            parts.append("(" + canon(*v) + ")")
        else:
            parts.append(str(v))
    return ",".join(parts)


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def children_hwm_mb() -> float:
    """Sum of the peak resident sets of this process's live children."""
    me = os.getpid()
    total_kb = 0
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            if ppid != me:
                continue
            with open(f"/proc/{entry.name}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except (OSError, ValueError, IndexError):
            continue
    return total_kb / 1024.0


class Workload:
    name = ""
    #: Worker processes of the timed pass (1 = in-process only).
    jobs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def teardown(self) -> None:
        """Drop the previous pass's state, so set-up starts empty."""
        clear_shared_caches()  # also closes the shared pool and shm registry
        for attr in list(vars(self)):
            if attr not in ("seed", "requests", "jobs"):
                delattr(self, attr)
        gc.collect()

    def setup(self, store_dir: str) -> None:
        raise NotImplementedError

    def order(self, pass_index: int) -> list:
        """Request ids in this pass's seeded order.

        Passes come in pairs: an odd pass replays the previous pass's
        order reversed, so a request that met cold caches early in one
        pass meets warm ones late in the next, and the pair's cost
        depends less on the draw.
        """
        ids = list(range(len(self.requests)))
        random.Random(f"{self.seed}:{pass_index // 2}").shuffle(ids)
        return ids[::-1] if pass_index % 2 else ids

    def run_pass(self, tracer=None, jobs=None, pass_index=0) -> PassResult:
        raise NotImplementedError

    def cli_args(self, workdir) -> list:
        raise NotImplementedError

    def close(self) -> None:
        close_shared_pool()
        close_trace_pools()


class PlanSweep(Workload):
    """Every paper app x deadline factor x kappa x slack over one history."""

    name = "plan-sweep"
    FACTORS = (1.05, 1.2, 1.5, 2.0)
    KAPPAS = (2, 3, 4)
    SLACKS = (0.1, 0.2)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.requests = [
            (app, f, k, s)
            for app in PAPER_APPS
            for f in self.FACTORS
            for k in self.KAPPAS
            for s in self.SLACKS
        ]

    def setup(self, store_dir: str) -> None:
        env = ExperimentEnv.paper_default(seed=HISTORY_SEED)
        self.env = env
        self.configs = {
            (k, s): env.config.with_(kappa=k, slack=s, artifact_dir=store_dir)
            for k in self.KAPPAS
            for s in self.SLACKS
        }
        self.problems = {
            (app, f): env.problem(app, deadline_factor=f)
            for app in PAPER_APPS
            for f in self.FACTORS
        }
        self.models = {key: env.failure_models(p) for key, p in self.problems.items()}

    def run_pass(self, tracer=None, jobs=None, pass_index=0) -> PassResult:
        plans, latencies = {}, []
        t_start = time.perf_counter()
        for rid in self.order(pass_index):
            app, f, k, s = self.requests[rid]
            if tracer is not None:
                tracer.request_id = rid
            t0 = time.perf_counter()
            try:
                with _span(tracer, "request"):
                    plans[rid] = SompiOptimizer(
                        self.problems[(app, f)], self.models[(app, f)],
                        self.configs[(k, s)],
                    ).plan()
            except Exception as exc:  # a failed request is counted, not fatal
                plans[rid] = exc
            latencies.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - t_start
        outputs, failed = {}, 0
        for rid, plan in plans.items():
            try:
                outputs[rid] = self._check(rid, plan)
            except Exception:
                failed += 1
        return PassResult(wall, len(self.requests), latencies, outputs,
                          len(self.requests), failed)

    def _check(self, rid, plan) -> str:
        if isinstance(plan, Exception):
            raise plan
        app, f, _k, _s = self.requests[rid]
        problem = self.problems[(app, f)]
        cost = plan.expectation.cost
        again = self.env.expectation(problem, plan.decision).cost
        if not abs(again - cost) <= 1e-9 * max(1.0, abs(cost)):
            raise CheckFailed(f"request {rid}: expected cost {cost!r} != {again!r}")
        if cost > plan.ondemand.full_run_cost * (1.0 + 1e-12):
            raise CheckFailed(f"request {rid}: plan costs more than on-demand")
        groups = [(g.group_index, g.bid, g.interval) for g in plan.decision.groups]
        return canon(groups, plan.decision.ondemand_index, cost,
                     plan.expectation.time, plan.combos_evaluated)

    def cli_args(self, workdir) -> list:
        return ["plan", "--app", "BTIO", "--deadline-factor", "1.05"]


class McEval(Workload):
    """Monte-Carlo pricing of pre-planned decisions by trace replay.

    A request is (decision, semantics, billing).  Each request id draws
    its own start times, so the two continuous requests of a (decision,
    semantics) pair replay different starts.
    """

    name = "mc-eval"
    SAMPLES = 2000
    FACTORS = (1.05, 1.5)
    #: Hourly billing replays take 2-4x as long as continuous ones.  With
    #: an even mix p50 would fall exactly on the boundary between the two
    #: classes, so the default (continuous) billing is two thirds of the
    #: mix: p50 lies inside the continuous class, p90 inside the hourly.
    MODES = [
        (sem, billing)
        for sem in ("single-shot", "persistent")
        for billing in ("continuous", "continuous", "hourly")
    ]

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        n_decisions = len(PAPER_APPS) * len(self.FACTORS)
        self.requests = [
            (d, sem, billing)
            for d in range(n_decisions)
            for sem, billing in self.MODES
        ]

    def setup(self, store_dir: str) -> None:
        config = DEFAULT_CONFIG.with_(kappa=3, artifact_dir=store_dir)
        env = ExperimentEnv.paper_default(seed=HISTORY_SEED, config=config)
        self.env = env
        self.decisions = []
        for app in PAPER_APPS:
            for f in self.FACTORS:
                problem = env.problem(app, deadline_factor=f)
                plan = SompiOptimizer(
                    problem, env.failure_models(problem), config
                ).plan()
                self.decisions.append((problem, plan.decision))

    def run_pass(self, tracer=None, jobs=None, pass_index=0) -> PassResult:
        env = self.env
        summaries, latencies = {}, []
        t_start = time.perf_counter()
        for rid in self.order(pass_index):
            d, sem, billing = self.requests[rid]
            problem, decision = self.decisions[d]
            if tracer is not None:
                tracer.request_id = rid
            rng = np.random.default_rng([self.seed, rid])
            t0 = time.perf_counter()
            try:
                with _span(tracer, "request"):
                    summaries[rid] = evaluate_decision_mc(
                        problem, decision, env.history, self.SAMPLES, rng,
                        t_min=env.train_end, semantics=sem,
                        billing=CONTINUOUS if billing == "continuous" else HOURLY,
                    )
            except Exception as exc:
                summaries[rid] = exc
            latencies.append((time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - t_start
        outputs, failed = {}, 0
        for rid, summary in summaries.items():
            try:
                outputs[rid] = self._check(summary)
            except Exception:
                failed += 1
        n = len(self.requests)
        return PassResult(wall, n * self.SAMPLES, latencies, outputs, n, failed)

    def _check(self, s) -> str:
        if isinstance(s, Exception):
            raise s
        values = (s.mean_cost, s.std_cost, s.mean_time, s.std_time, s.p95_cost,
                  s.p95_time, s.deadline_miss_rate, s.spot_completion_rate,
                  s.ondemand_fallback_rate)
        if not _finite(*values):
            raise CheckFailed("non-finite Monte-Carlo summary")
        if not 0.0 <= s.deadline_miss_rate <= 1.0:
            raise CheckFailed(f"miss rate {s.deadline_miss_rate} outside [0, 1]")
        if s.n_samples != self.SAMPLES:
            raise CheckFailed(f"{s.n_samples} samples, asked for {self.SAMPLES}")
        return canon(s.n_samples, *values)

    def cli_args(self, workdir) -> list:
        return ["replay", "--samples", str(self.SAMPLES)]


class BacktestGrid(Workload):
    """Rolling plan/holdout windows over a longer history, on the pool."""

    name = "backtest-grid"
    HISTORY_DAYS = 70.0
    WINDOWS = 6
    PLAN_DAYS = 14.0
    HOLDOUT_DAYS = 7.0
    SAMPLES = 200
    DEADLINES = (("loose", 1.5), ("mid", 1.2), ("tight", 1.05))

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.jobs = min(2, os.cpu_count() or 1)

    def setup(self, store_dir: str) -> None:
        config = DEFAULT_CONFIG.with_(kappa=3, artifact_dir=store_dir)
        env = ExperimentEnv.paper_default(
            seed=HISTORY_SEED, history_days=self.HISTORY_DAYS, config=config
        )
        # The cell streams (replay start times) derive from env.seed.
        env = dataclasses.replace(env, seed=self.seed)
        self.env = env
        self.manifest = build_manifest(
            env, self.WINDOWS, self.PLAN_DAYS * 24.0, self.HOLDOUT_DAYS * 24.0,
            PAPER_APPS, self.DEADLINES, self.SAMPLES,
        )
        self.cells = [  # the report's grid order
            (w.index, app, name)
            for w in self.manifest.windows
            for app in PAPER_APPS
            for name, _f in self.DEADLINES
        ]
        if self.jobs > 1:
            shared_trace_handle(env.history)
            # Spawn the pool now and run a small grid over another history
            # on it: the timed pass meets warm workers (a fresh worker's
            # first cells run 2-3x slower) but none of its own cache entries.
            warm = ExperimentEnv.paper_default(
                seed=HISTORY_SEED + 1,
                history_days=self.PLAN_DAYS + 2 * self.HOLDOUT_DAYS,
                config=config,
            )
            run_backtest(warm, build_manifest(
                warm, 2, self.PLAN_DAYS * 24.0, self.HOLDOUT_DAYS * 24.0,
                ("BT", "SP"), self.DEADLINES, 50,
            ), jobs=self.jobs)

    def run_pass(self, tracer=None, jobs=None, pass_index=0) -> PassResult:
        jobs = self.jobs if jobs is None else jobs
        metrics = obs.get_metrics()
        cell_ms = []

        def merge_snapshot(snapshot, _merge=metrics.merge_snapshot):
            # Each parallel cell ships its worker timers home; their sum
            # is that cell's service time.
            timers = snapshot.get("timers", {})
            cell_ms.append(1e3 * sum(
                timers.get(name, {}).get("seconds", 0.0)
                for name in ("backtest.plan", "backtest.replay")
            ))
            _merge(snapshot)

        metrics.merge_snapshot = merge_snapshot
        if tracer is not None:
            tracer.request_id = 0
        t_start = time.perf_counter()
        try:
            with _span(tracer, "request"):
                report = run_backtest(self.env, self.manifest, jobs=jobs)
                with _span(tracer, "backtest.report"):
                    tables = report_tables(report)
        except Exception as exc:
            report, tables = exc, None
        finally:
            del metrics.merge_snapshot
        wall = time.perf_counter() - t_start
        outputs, failed = self._check(report, tables)
        n_cells = len(self.cells)
        return PassResult(wall, n_cells, cell_ms, outputs, n_cells, failed,
                          children_rss_mb=children_hwm_mb())

    def _check(self, report, tables):
        cells = self.cells
        if isinstance(report, Exception):
            return {}, len(cells)
        outputs, failed = {}, len(cells) - min(len(cells), len(report.results))
        for rid, r in enumerate(report.results[:len(cells)]):
            values = (r.predicted_cost, r.predicted_time_hours, r.predicted_miss,
                      r.realized_cost, r.realized_time_hours, r.realized_miss,
                      r.spot_completion_rate)
            if (
                (r.window.index, r.app, r.deadline_name) != cells[rid]
                or not _finite(*values)
                or not 0.0 <= r.realized_miss <= 1.0
            ):
                failed += 1
                continue
            outputs[rid] = canon(*cells[rid], r.used_spot, *values, r.triggers)
        if len(tables) != 3:
            failed += 1
        else:
            outputs["report"] = canon(*(t.format_table() for t in tables))
        return outputs, failed

    def cli_args(self, workdir) -> list:
        return ["backtest", "--quick", "--jobs", str(self.jobs),
                "--manifest", str(workdir / "cli_manifest.json"),
                "--out", str(workdir / "cli_results.json")]


WORKLOADS = {w.name: w for w in (PlanSweep, McEval, BacktestGrid)}
