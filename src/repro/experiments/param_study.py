"""Section 5.2 — parameter study: Slack, kappa, T_m.

* **Slack** — the fraction of the deadline reserved for checkpoint and
  recovery overhead when picking the on-demand fallback.  The paper
  finds cost improving up to ~20% slack and flat beyond, with execution
  time rising mildly; 20% becomes the default.
* **kappa** — circle groups actually used.  The paper finds diminishing
  cost returns past kappa=4 while the optimization overhead explodes;
  we report expected cost and bid-combinations evaluated, the
  deterministic measure of the optimization overhead.
* **T_m** — the adaptive window.  Too small re-checkpoints and
  re-optimizes constantly; too large reacts slowly to drifting prices.
  We run the adaptive executor on the drifting market of Figure 8.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cloud.zones import Zone
from ..execution.adaptive import AdaptiveExecutor
from .common import ExperimentResult
from .env import ExperimentEnv
from .fig8_fault_tolerance import drifting_history

SLACKS = (0.05, 0.10, 0.20, 0.30, 0.40)
KAPPAS = (1, 2, 3, 4, 5)
WINDOWS = (4.0, 8.0, 15.0, 24.0, 40.0)


def run_slack(
    env: ExperimentEnv,
    app_name: str = "BT",
    deadline_factor: float = 1.3,
    slacks: Sequence[float] = SLACKS,
    n_samples: int = 150,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="PARAM-SLACK",
        title=f"Slack sweep ({app_name}, deadline {deadline_factor:.2f}x)",
        columns=("slack", "norm cost", "norm time", "miss rate"),
    )
    app = env.app(app_name)
    baseline_cost = env.baseline_cost(app)
    baseline_time = env.baseline_time(app)
    problem = env.problem(app, deadline_factor)
    for slack in slacks:
        plan = env.sompi_plan(problem, env.config.with_(slack=slack))
        mc = env.mc(problem, plan.decision, n_samples, f"slack:{slack}")
        result.add_row(
            slack,
            mc.mean_cost / baseline_cost,
            mc.mean_time / baseline_time,
            mc.deadline_miss_rate,
        )
    result.data["slacks"] = list(slacks)
    result.data["costs"] = [row[1] for row in result.rows]
    return result


def run_kappa(
    env: ExperimentEnv,
    app_name: str = "BT",
    deadline_factor: float = 1.5,
    kappas: Sequence[int] = KAPPAS,
) -> ExperimentResult:
    """kappa sweep on a reduced candidate set (2 types x 3 zones) of the
    *risky* market — replication only has value where failures are likely
    (see Figure 8) — so the exhaustive traversal stays measurable at
    every kappa while the cost curve actually moves."""
    from .fig8_fault_tolerance import risky_env

    reduced = risky_env(
        ExperimentEnv.paper_default(
            seed=env.seed,
            config=env.config.with_(bid_levels=5),
            instance_types=("m1.medium", "cc2.8xlarge"),
            zones=tuple(Zone(z.name) for z in env.zones),
        )
    )
    result = ExperimentResult(
        experiment_id="PARAM-KAPPA",
        title=f"kappa sweep ({app_name}, K={2 * len(env.zones)} risky groups)",
        columns=(
            "kappa",
            "expected cost",
            "mc p95 cost",
            "combos evaluated",
        ),
    )
    problem = reduced.problem(app_name, deadline_factor)
    for kappa in kappas:
        plan = reduced.sompi_plan(problem, reduced.config.with_(kappa=kappa))
        mc = reduced.mc(problem, plan.decision, 120, f"kappa:{kappa}")
        result.add_row(
            kappa, plan.expectation.cost, mc.p95_cost, plan.combos_evaluated
        )
    costs = [row[1] for row in result.rows]
    combos = [row[3] for row in result.rows]
    result.data["kappas"] = list(kappas)
    result.data["costs"] = costs
    result.data["combos"] = combos
    result.notes.append(
        f"cost improves {100 * (1 - costs[-1] / costs[0]):.1f}% from kappa=1 "
        f"to {kappas[-1]}, while evaluated combinations grow "
        f"{combos[-1] / combos[0]:.0f}x"
    )
    result.notes.append(
        "deviation: with cheap coordinated checkpoints the expectation "
        "model finds single-group execution optimal, so the cost knee sits "
        "at kappa=1-2 rather than the paper's 4; the overhead-growth axis "
        "of the paper's conclusion is reproduced as-is"
    )
    return result


def run_window(
    env: ExperimentEnv,
    app_name: str = "BT",
    deadline_factor: float = 2.0,
    windows: Sequence[float] = WINDOWS,
    n_starts: int = 10,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="PARAM-TM",
        title=f"Optimization window T_m sweep ({app_name}, drifting market)",
        columns=("T_m hours", "norm cost", "norm std", "mean windows"),
    )
    drift = drifting_history(env)
    app = env.app(app_name)
    baseline_cost = env.baseline_cost(app)
    problem = env.problem(app, deadline_factor)
    rng = env.rng.fresh("param:tm")
    hi = min(t.end_time for _k, t in drift.items()) - 2.0 * problem.deadline
    starts = rng.uniform(env.train_end, max(env.train_end + 1.0, hi), n_starts)
    for tm in windows:
        cfg = env.config.with_(window_hours=tm)
        # One executor, all starts: each adaptation step's window replays
        # are batched; bit-identical to a fresh executor per start.
        results = AdaptiveExecutor(problem, drift, cfg).run_many(
            [float(t0) for t0 in starts]
        )
        costs = [res.cost for res in results]
        n_windows = [len(res.windows) for res in results]
        costs = np.array(costs)
        result.add_row(
            tm,
            float(costs.mean() / baseline_cost),
            float(costs.std() / baseline_cost),
            float(np.mean(n_windows)),
        )
    result.data["windows"] = list(windows)
    result.data["costs"] = [row[1] for row in result.rows]
    return result


def run(env: ExperimentEnv, **kwargs) -> list[ExperimentResult]:
    """All three sweeps."""
    return [run_slack(env), run_kappa(env), run_window(env)]
