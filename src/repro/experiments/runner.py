"""Run every reproduced experiment and print the paper's tables.

Usage::

    python -m repro.experiments.runner                 # everything
    python -m repro.experiments.runner --quick         # reduced sampling
    python -m repro.experiments.runner --only fig5 tab2
    python -m repro.experiments.runner --seed 11
    python -m repro.experiments.runner --jobs 4        # experiments in parallel

``--jobs N`` runs whole experiments in worker processes.  Each worker
rebuilds the experiment environment from the seed, and every random
stream is derived statelessly from (seed, stream name), so the printed
tables are byte-identical to a serial run — only the ordering of the
work changes, never the numbers.

``--audit`` turns on :mod:`repro.obs` audit mode for the whole sweep:
every replay and adaptive result is reconciled against its cost ledger
(``cost == ledger.total()`` to 1e-9) and the run aborts on the first
violation.  ``--metrics PATH`` writes the observability counters and
timers as a JSON sidecar (never into the results JSON) and prints the
human-readable metrics block; with ``--jobs`` the workers' registries
are merged into the parent's before reporting.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Iterable, List

from .. import obs
from ..execution.pool import WorkerPool, jobs_arg, resolve_jobs

from . import (
    accuracy,
    ext_backtest,
    ext_correlation,
    ext_semantics,
    fig1_price_variation,
    fig2_price_histogram,
    fig4_failure_rate,
    fig5_cost_comparison,
    fig6_heuristics,
    fig7_deadline_sweep,
    fig8_fault_tolerance,
    param_study,
    reduction,
    table2_exec_time,
)
from .common import ExperimentResult
from .env import ExperimentEnv


def _all_experiments(env: ExperimentEnv, n_samples: int) -> dict:
    return {
        "fig1": lambda: [fig1_price_variation.run(env)],
        "fig2": lambda: [fig2_price_histogram.run(env)],
        "fig4": lambda: [fig4_failure_rate.run(env)],
        "fig5": lambda: [fig5_cost_comparison.run(env, n_samples=n_samples)],
        "tab2": lambda: [table2_exec_time.run(env, n_samples=n_samples)],
        "fig6": lambda: [fig6_heuristics.run(env, n_samples=n_samples)],
        "fig7": lambda: [fig7_deadline_sweep.run(env)],
        "fig8": lambda: [fig8_fault_tolerance.run(env, n_samples=n_samples)],
        "params": lambda: param_study.run(env),
        "accuracy": lambda: accuracy.run(env),
        "reduction": lambda: [reduction.run(env)],
        # Extensions beyond the paper (see EXPERIMENTS.md).
        "ext-sem": lambda: [ext_semantics.run(env, n_samples=n_samples)],
        "ext-corr": lambda: [ext_correlation.run(env, n_samples=n_samples)],
        "ext-backtest": lambda: ext_backtest.run(env, n_samples=n_samples),
    }


def _run_one(name: str, seed: int, n_samples: int, audit: bool = False) -> tuple:
    """Run one experiment in a fresh environment (worker entry point).

    Every experiment draws randomness only through stateless
    ``rng.fresh(stream)`` derivations from the seed, so a rebuilt
    environment produces exactly the tables the shared one would.

    Returns ``(results, wall_seconds, metrics_snapshot)``.  The worker's
    metrics registry is reset first so the snapshot covers exactly this
    experiment even when the pool reuses the process.
    """
    if audit:
        obs.set_audit(True)
    obs.reset_metrics()
    env = ExperimentEnv.paper_default(seed=seed)
    t0 = time.perf_counter()
    results = _all_experiments(env, n_samples)[name]()
    wall = time.perf_counter() - t0
    return results, wall, obs.get_metrics().snapshot()


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--samples", type=int, default=150, help="Monte-Carlo replays per point"
    )
    parser.add_argument(
        "--quick", action="store_true", help="40 replays per point (smoke run)"
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of experiment ids (fig1 fig2 fig4 fig5 tab2 fig6 fig7 "
        "fig8 params accuracy reduction ext-sem ext-corr ext-backtest)",
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        metavar="PATH",
        help="also write all result rows to a JSON file",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=None,
        metavar="N",
        help="run experiments in N worker processes (same output as serial)",
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help="assert cost-ledger conservation on every result (repro.obs)",
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help="write observability counters/timers to a JSON sidecar",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.audit:
        # Both switches: set_audit covers this process, the environment
        # variable covers worker processes however they are started.
        os.environ["REPRO_AUDIT"] = "1"
        obs.set_audit(True)

    n_samples = 40 if args.quick else args.samples
    env = ExperimentEnv.paper_default(seed=args.seed)
    experiments = _all_experiments(env, n_samples)
    selected = args.only or list(experiments)
    unknown = [name for name in selected if name not in experiments]
    if unknown:
        parser.error(f"unknown experiments {unknown}; known: {list(experiments)}")

    all_results: List[ExperimentResult] = []

    def emit(name: str, results: List[ExperimentResult], wall: float) -> None:
        for res in results:
            print(res.format_table())
            print()
            all_results.append(res)
        print(f"[{name} completed in {wall:.1f}s]")
        print()

    n_jobs = resolve_jobs(args.jobs, len(selected))
    if n_jobs > 1:
        # The persistent shared pool, not a throwaway executor: warm
        # workers carry their table caches from experiment to experiment
        # (and from any earlier parallel work in this process).  Results
        # come back in selection order for a stable, serial-identical log.
        gathered = WorkerPool.shared(n_jobs).run_ordered(
            _run_one,
            [(name, args.seed, n_samples, args.audit) for name in selected],
        )
        for name, (results, wall, snap) in zip(selected, gathered):
            obs.get_metrics().merge_snapshot(snap)
            emit(name, results, wall)
    else:
        for name in selected:
            t0 = time.perf_counter()
            results = experiments[name]()
            emit(name, results, time.perf_counter() - t0)
    if args.json:
        _write_json(all_results, args.seed, n_samples, args.json)
        print(f"wrote JSON results to {args.json}")
    print(f"ran {len(all_results)} experiment tables with seed={args.seed}")
    if args.audit:
        print("audit: every result reconciled against its cost ledger")
    if args.metrics or args.audit:
        print()
        print(obs.get_metrics().format_block())
    if args.metrics:
        _write_metrics(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    return 0


def _write_metrics(path: str) -> None:
    """Dump the merged metrics registry as a JSON sidecar.

    Kept out of the results JSON on purpose: wall-clock timers vary run
    to run, and ``experiments_results.json`` must stay bit-identical
    for the same seed and sampling parameters.
    """
    import json

    with open(path, "w") as fh:
        json.dump(obs.get_metrics().snapshot(), fh, indent=1)


def _write_json(
    results: List[ExperimentResult], seed: int, n_samples: int, path: str
) -> None:
    """Dump every table's rows (not the raw data payloads) as JSON."""
    import json

    doc = {
        "format": "repro.experiment-results.v1",
        "seed": seed,
        "n_samples": n_samples,
        "tables": [
            {
                "experiment_id": res.experiment_id,
                "title": res.title,
                "columns": list(res.columns),
                "rows": [list(row) for row in res.rows],
                "notes": list(res.notes),
            }
            for res in results
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=str)


if __name__ == "__main__":
    sys.exit(main())
