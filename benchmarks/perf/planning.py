"""Planning-pipeline benchmark: failure models, tables, subset search.

Times the same planning workload three ways, spanning the cache tiers
introduced in DESIGN.md §10:

* **cold boot** — both tiers empty (fresh artifact directory, shared
  caches cleared): the first plan ever on a machine.  Artifact
  *population* overhead is included, so this pass also guards against
  the store making first runs slower.
* **cold disk** — warm artifact directory, shared in-memory caches
  cleared: the first plan of a fresh process on a machine that has
  planned this workload before.  The regression guard ``primary``
  watches this tier.
* **warm path** — everything primed: the fig5/fig7/param-study regime
  where later plans reuse what earlier ones built.

Every timing is the best of ``_REPEATS`` runs, so one scheduler hiccup
cannot fake a regression (a single-shot cold measurement once recorded
a spurious 0.93x "speedup").  Every tier must produce the cold-boot
tier's plans (asserted here), so the timings are pure speed
measurements.
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


def _plan_all(env: ExperimentEnv, cases, art_dir: str, model_sets=None):
    """Plan every case; returns (plans, seconds, combos).

    ``art_dir`` points the artifact store at a benchmark-private
    directory, so no run ever touches the user's real cache.  Failure
    models are shared across plans exactly as
    :meth:`ExperimentEnv.failure_models` shares them; pass the same
    ``model_sets`` dict to a second call to time the fully warm regime.
    """
    config = env.config.with_(artifact_dir=art_dir)
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
                step_hours=config.time_step_hours,
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

        def boot_pass(i):
            # A directory this pass has never seen: both tiers cold,
            # artifact writes included in the measured time.
            clear_shared_caches()
            return _plan_all(env, cases, str(root / f"boot{i}"))

        disk_dir = str(root / "disk")

        def disk_pass():
            # Memory cleared, disk warm: a fresh process on a machine
            # that has planned this workload before.
            clear_shared_caches()
            return _plan_all(env, cases, disk_dir)

        boot_plans, boot_s, combos = min(
            (boot_pass(i) for i in range(_REPEATS)), key=lambda r: r[1]
        )
        clear_shared_caches()
        _plan_all(env, cases, disk_dir)  # prime disk
        disk_plans, disk_s, _ = min(
            (disk_pass() for _ in range(_REPEATS)), key=lambda r: r[1]
        )
        # Warm pass: prime the shared caches once, then time reuse.
        clear_shared_caches()
        shared_models: dict = {}
        _plan_all(env, cases, disk_dir, model_sets=shared_models)
        warm_plans, warm_s, _ = min(
            (
                _plan_all(env, cases, disk_dir, model_sets=shared_models)
                for _ in range(_REPEATS)
            ),
            key=lambda r: r[1],
        )

        for tier, plans in (("cold_disk", disk_plans), ("warm", warm_plans)):
            for a, b in zip(boot_plans, plans):
                assert a.expectation == b.expectation, (
                    f"{tier} plan diverged from cold boot"
                )
                assert a.decision == b.decision, (
                    f"{tier} plan diverged from cold boot"
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
                "cold_boot_s": round(boot_s, 4),
                "cold_disk_s": round(disk_s, 4),
                "warm_s": round(warm_s, 4),
            },
            "subset_search": {
                "combos_evaluated": combos,
                # Cold boot is the tier where subset scoring runs; on
                # cold disk the search sidecar serves every score.
                "combos_per_s": (
                    round(combos / boot_s, 1) if boot_s > 0 else None
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
