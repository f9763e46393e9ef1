"""Persistent worker-pool benchmark: spawn and warm-up amortization.

Times the ``backtest --quick`` workload three ways: cold-boot serial
(shared caches cleared *and* an empty artifact store: what an unwarmed
run — a fresh CI shard, a first run on a machine — pays, table and
sidecar builds included), cold-disk serial (caches cleared, store warm:
a fresh process after ``repro artifacts warm``), and the warm
persistent pool at ``jobs=4``.  Warm workers keep their in-memory
tables between requests, which is the planning-as-a-service regime the
ROADMAP names; the headline ratio is warm-pool vs cold-boot — the
per-run provisioning + warm-up cost the pool's persistence amortizes
away.

Reports are asserted bit-identical across serial/parallel before any
ratio is computed, and every timing is the best of ``_REPEATS`` runs.
The regression guard (``primary``) watches the warm jobs=4 backtest —
the tier every later consumer (CI shards, experiment sweeps) sits on.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import time

from repro.backtest import build_manifest, run_backtest
from repro.core.two_level import clear_shared_caches
from repro.experiments.env import ExperimentEnv, LOOSE_DEADLINE_FACTOR

#: Timings are the best of this many runs (noise floor, not average).
_REPEATS = 3

#: Backtest grid parallelism (the ISSUE 8 acceptance point).
_BT_JOBS = 4


def run(quick: bool = False) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-bench-pool-") as tmp:
        from repro.execution.artifacts import ARTIFACT_DIR_ENV

        saved_env = os.environ.get(ARTIFACT_DIR_ENV)
        os.environ[ARTIFACT_DIR_ENV] = str(pathlib.Path(tmp) / "art")
        try:
            # --- Backtest grid: cold serial vs warm jobs=N ------------
            # The `backtest --quick` workload (cli.py): 2 windows,
            # 10+5 days, 40 replays, BT loose.
            env = ExperimentEnv.paper_default()
            manifest = build_manifest(
                env,
                n_windows=2,
                plan_hours=10 * 24.0,
                holdout_hours=5 * 24.0,
                apps=("BT",),
                deadline_factors=(("loose", LOOSE_DEADLINE_FACTOR),),
                n_samples=40,
            )
            # Cold boot: empty store + cleared caches per run — the
            # unwarmed per-run cost the persistent pool amortizes.
            boot_report = None
            boot_s = float("inf")
            for i in range(_REPEATS):
                os.environ[ARTIFACT_DIR_ENV] = str(
                    pathlib.Path(tmp) / f"boot{i}"
                )
                clear_shared_caches()
                t0 = time.perf_counter()
                rep = run_backtest(env, manifest)
                boot_s = min(boot_s, time.perf_counter() - t0)
                boot_report = rep
            os.environ[ARTIFACT_DIR_ENV] = str(pathlib.Path(tmp) / "art")
            run_backtest(env, manifest)  # prime the artifact disk tier
            cold_report = None
            cold_s = float("inf")
            for _ in range(_REPEATS):
                clear_shared_caches()
                t0 = time.perf_counter()
                rep = run_backtest(env, manifest)
                cold_s = min(cold_s, time.perf_counter() - t0)
                cold_report = rep
            assert boot_report.results == cold_report.results, (
                "cold-disk backtest diverged from cold-boot"
            )
            # Warm regime: pool spawned, workers warmed, tables cached.
            run_backtest(env, manifest, jobs=_BT_JOBS)
            warm_report = None
            warm_bt_s = float("inf")
            for _ in range(_REPEATS):
                t0 = time.perf_counter()
                rep = run_backtest(env, manifest, jobs=_BT_JOBS)
                warm_bt_s = min(warm_bt_s, time.perf_counter() - t0)
                warm_report = rep
            assert cold_report.results == warm_report.results, (
                "parallel backtest diverged from serial"
            )
        finally:
            if saved_env is None:
                os.environ.pop(ARTIFACT_DIR_ENV, None)
            else:
                os.environ[ARTIFACT_DIR_ENV] = saved_env
            clear_shared_caches()

    return {
        "suite": "pool",
        "metrics": {
            "backtest_quick": {
                "jobs": _BT_JOBS,
                "cold_boot_serial_s": round(boot_s, 4),
                "cold_disk_serial_s": round(cold_s, 4),
                "warm_jobs_s": round(warm_bt_s, 4),
                "speedup_vs_cold_boot": (
                    round(boot_s / warm_bt_s, 2) if warm_bt_s > 0 else None
                ),
                "speedup_vs_cold_disk": (
                    round(cold_s / warm_bt_s, 2) if warm_bt_s > 0 else None
                ),
            },
        },
        # Guard the warm parallel backtest: the steady-state tier every
        # repeated consumer (CI shards, sweeps, planning-as-a-service)
        # actually runs in.
        "primary": {"name": "backtest_quick.warm_jobs_s", "seconds": warm_bt_s},
    }
