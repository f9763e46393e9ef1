"""Planning-pipeline benchmark: failure models, tables, subset search.

Times the same planning workload four ways, spanning the cache tiers
introduced in DESIGN.md §10:

* **seed path** — per-bid failure-model memoisation off, shared group
  tables off, one-shot grid evaluation off, artifact store off: what
  the code did before the performance layers.
* **cold boot** — all layers on but both tiers empty (fresh artifact
  directory, shared caches cleared): the first plan ever on a machine.
  Grid evaluation is the only layer that can help here; artifact
  *population* overhead is included, so this pass also guards against
  the store making first runs slower.
* **cold disk** — warm artifact directory, shared in-memory caches
  cleared: the first plan of a fresh process on a machine that has
  planned this workload before.  This is the tier the tentpole targets
  (``speedup_cold`` and the regression guard ``primary`` watch it).
* **warm path** — everything primed: the fig5/fig7/param-study regime
  where later plans reuse what earlier ones built.

Every timing is the best of ``_REPEATS`` runs, so one scheduler hiccup
cannot fake a regression (a single-shot cold measurement once recorded
a spurious 0.93x "speedup").  All paths must produce identical plans
(asserted here), so the ratios are pure speed measurements.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time

from repro.core.optimizer import SompiOptimizer, build_failure_models
from repro.core.two_level import clear_shared_caches
from repro.experiments.env import ExperimentEnv
from repro.experiments import fig5_cost_comparison

#: (app, deadline_factor) pairs exercised by the benchmark.
_FULL_CASES = [
    ("BT", 1.5), ("BT", 1.05), ("SP", 1.5), ("SP", 1.05),
    ("LU", 1.5), ("FT", 1.05), ("IS", 1.5),
]
_QUICK_CASES = _FULL_CASES[:3]

#: Timings are the best of this many runs (noise floor, not average).
_REPEATS = 3


def _plan_all(
    env: ExperimentEnv,
    cases,
    cached: bool,
    art_dir: str | None = None,
    model_sets=None,
):
    """Plan every case; returns (plans, seconds, combos).

    ``cached`` switches the per-bid failure-model memoisation and the
    shared group-table cache on or off together (the seed path predates
    both; the one-shot grid evaluation is the planner's only path).  ``art_dir`` points
    the artifact store at a benchmark-private directory — ``None``
    disables the disk tier entirely, so no run ever touches the user's
    real cache.  Failure models are shared across plans exactly as
    :meth:`ExperimentEnv.failure_models` shares them (the seed did that
    too); pass the same ``model_sets`` dict to a second call to time
    the fully warm regime.
    """
    config = env.config.with_(
        table_cache=cached,
        artifact_cache=art_dir is not None,
        artifact_dir=art_dir,
    )
    problems = [env.problem(app, deadline_factor=f) for app, f in cases]
    training = env.training_history()
    if model_sets is None:
        model_sets = {}
    t0 = time.perf_counter()
    plans = []
    combos = 0
    for problem in problems:
        mkey = tuple(g.key for g in problem.groups)
        models = model_sets.get(mkey)
        if models is None:
            models = build_failure_models(
                problem, training,
                step_hours=config.time_step_hours, cache=cached,
            )
            model_sets[mkey] = models
        opt = SompiOptimizer(problem, models, config)
        plan = opt.plan()
        combos += plan.combos_evaluated
        plans.append(plan)
    return plans, time.perf_counter() - t0, combos


def run(quick: bool = False) -> dict:
    cases = _QUICK_CASES if quick else _FULL_CASES
    env = ExperimentEnv.paper_default()

    with tempfile.TemporaryDirectory(prefix="repro-bench-art-") as tmp:
        root = pathlib.Path(tmp)

        def seed_pass():
            clear_shared_caches()
            return _plan_all(env, cases, cached=False)

        def boot_pass(i):
            # A directory this pass has never seen: both tiers cold,
            # artifact writes included in the measured time.
            clear_shared_caches()
            return _plan_all(
                env, cases, cached=True, art_dir=str(root / f"boot{i}")
            )

        disk_dir = str(root / "disk")

        def disk_pass():
            # Memory cleared, disk warm: a fresh process on a machine
            # that has planned this workload before.
            clear_shared_caches()
            return _plan_all(env, cases, cached=True, art_dir=disk_dir)

        seed_plans, seed_s, combos = min(
            (seed_pass() for _ in range(_REPEATS)), key=lambda r: r[1]
        )
        boot_plans, boot_s, _ = min(
            (boot_pass(i) for i in range(_REPEATS)), key=lambda r: r[1]
        )
        clear_shared_caches()
        _plan_all(env, cases, cached=True, art_dir=disk_dir)  # prime disk
        disk_plans, disk_s, _ = min(
            (disk_pass() for _ in range(_REPEATS)), key=lambda r: r[1]
        )
        # Warm pass: prime the shared caches once, then time reuse.
        clear_shared_caches()
        shared_models: dict = {}
        _plan_all(
            env, cases, cached=True, art_dir=disk_dir,
            model_sets=shared_models,
        )
        warm_plans, warm_s, _ = min(
            (
                _plan_all(
                    env, cases, cached=True, art_dir=disk_dir,
                    model_sets=shared_models,
                )
                for _ in range(_REPEATS)
            ),
            key=lambda r: r[1],
        )

        for tier, plans in (
            ("cold_boot", boot_plans), ("cold_disk", disk_plans),
            ("warm", warm_plans),
        ):
            for a, b in zip(seed_plans, plans):
                assert a.expectation == b.expectation, (
                    f"{tier} plan diverged from seed"
                )
                assert a.decision == b.decision, (
                    f"{tier} plan diverged from seed"
                )

        # fig5 plans with the default config, whose artifact store would
        # land in the user's real cache directory — pin it to the
        # benchmark sandbox so timings are hermetic run to run.
        from repro.execution.artifacts import ARTIFACT_DIR_ENV

        n_samples = 10 if quick else 40
        saved_env = os.environ.get(ARTIFACT_DIR_ENV)
        os.environ[ARTIFACT_DIR_ENV] = str(root / "fig5")
        try:
            clear_shared_caches()
            t0 = time.perf_counter()
            fig5_cost_comparison.run(
                ExperimentEnv.paper_default(), n_samples=n_samples
            )
            fig5_s = time.perf_counter() - t0
        finally:
            if saved_env is None:
                os.environ.pop(ARTIFACT_DIR_ENV, None)
            else:
                os.environ[ARTIFACT_DIR_ENV] = saved_env
            clear_shared_caches()

    return {
        "suite": "planning",
        "cases": len(cases),
        "metrics": {
            "plan_pipeline": {
                "seed_s": round(seed_s, 4),
                "cold_boot_s": round(boot_s, 4),
                "cold_disk_s": round(disk_s, 4),
                "warm_s": round(warm_s, 4),
                "speedup_cold": (
                    round(seed_s / disk_s, 2) if disk_s > 0 else None
                ),
                "speedup_boot": (
                    round(seed_s / boot_s, 2) if boot_s > 0 else None
                ),
                "speedup_warm": (
                    round(seed_s / warm_s, 2) if warm_s > 0 else None
                ),
            },
            "subset_search": {
                "combos_evaluated": combos,
                "combos_per_s": (
                    round(combos / disk_s, 1) if disk_s > 0 else None
                ),
            },
            "experiment_fig5": {
                "n_samples": n_samples,
                "optimized_s": round(fig5_s, 4),
            },
        },
        # Guard the cold-disk path: it is the tentpole's tier, and the
        # one that regresses when artifact loading gets expensive (warm
        # hides that entirely).
        "primary": {"name": "plan_pipeline.cold_disk_s", "seconds": disk_s},
    }
