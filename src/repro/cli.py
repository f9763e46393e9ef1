"""Command-line interface.

Subcommands::

    python -m repro.cli plan     --app BT --deadline-factor 1.5
    python -m repro.cli replay   --app BT --deadline-factor 1.5 --samples 300
    python -m repro.cli markets  --days 7
    python -m repro.cli export-history --out history.json
    python -m repro.cli backtest --windows 3 --train-days 14 --test-days 7
    python -m repro.cli artifacts [--clear | --evict | --warm]
    python -m repro.cli experiments --only fig5 tab2   (alias of the runner)

``plan`` prints the SOMPI decision for a workload; ``replay``
additionally Monte-Carlo-evaluates it against the traces; ``markets``
summarises the synthetic spot markets; ``export-history`` writes the
generated history to a JSON file (the same format ``--history`` loads,
so real AWS dumps converted via :mod:`repro.market.io` can be swapped
in); ``backtest`` runs the plan/holdout time-travel harness
(:mod:`repro.backtest`) and writes a manifest plus per-window
realized-vs-predicted and calibration tables; ``artifacts`` inspects,
evicts from, clears, or pre-warms the on-disk artifact store.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional

from .apps import PAPER_APPS
from .config import DEFAULT_CONFIG
from .execution.pool import jobs_arg
from .experiments.env import ExperimentEnv
from .market.history import SpotPriceHistory
from .market.io import load_history, save_history
from .market.stats import TraceSummary


def _build_env(args: argparse.Namespace) -> ExperimentEnv:
    config = DEFAULT_CONFIG.with_(kappa=args.kappa)
    env = ExperimentEnv.paper_default(seed=args.seed, config=config)
    if getattr(args, "history", None):
        loaded = load_history(args.history)
        # keep only markets the catalog knows, so problems stay valid
        filtered = SpotPriceHistory()
        for key, trace in loaded.items():
            filtered.add(key, trace)
        env.history = filtered
    return env


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--kappa", type=int, default=3)
    parser.add_argument(
        "--history", type=str, default=None, help="JSON history file to use"
    )


def cmd_plan(args: argparse.Namespace) -> int:
    env = _build_env(args)
    app = env.app(args.app, n_processes=args.processes)
    problem = env.problem(app, deadline_factor=args.deadline_factor)
    plan = env.sompi_plan(problem)
    if args.json:
        import json

        print(json.dumps(plan.to_dict(), indent=1))
        return 0
    print(f"workload: {app.profile().name}")
    print(
        f"baseline: {env.baseline_time(app):.2f} h / "
        f"${env.baseline_cost(app):.2f}; deadline {problem.deadline:.2f} h"
    )
    print(plan.describe())
    print(
        f"(searched {plan.combos_evaluated} bid combinations; "
        f"used spot: {plan.used_spot})"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    env = _build_env(args)
    app = env.app(args.app, n_processes=args.processes)
    problem = env.problem(app, deadline_factor=args.deadline_factor)
    plan = env.sompi_plan(problem)
    print(plan.describe())
    mc = env.mc(
        problem,
        plan.decision,
        n_samples=args.samples,
        stream="cli",
        semantics=args.semantics,
    )
    print(
        f"\n{args.samples} replays ({args.semantics}): "
        f"cost ${mc.mean_cost:.2f} +- {mc.std_cost:.2f} "
        f"(p95 ${mc.p95_cost:.2f}), time {mc.mean_time:.2f} h, "
        f"deadline misses {mc.deadline_miss_rate:.1%}, "
        f"finished on spot {mc.spot_completion_rate:.1%}"
    )
    return 0


def cmd_markets(args: argparse.Namespace) -> int:
    env = _build_env(args)
    print(f"{'market':>26}  {'min':>8}  {'max':>8}  {'mean':>8}  {'cv':>6}")
    for key, trace in env.history.items():
        window = trace.slice(
            trace.start_time, min(trace.end_time, trace.start_time + args.days * 24)
        )
        s = TraceSummary.of(window, spike_threshold=4 * window.mean_price())
        print(
            f"{str(key):>26}  {s.min_price:8.4f}  {s.max_price:8.3f}  "
            f"{s.mean_price:8.4f}  {s.coefficient_of_variation:6.2f}"
        )
    return 0


def cmd_export_history(args: argparse.Namespace) -> int:
    env = _build_env(args)
    save_history(env.history, args.out)
    print(f"wrote {len(env.history)} markets to {args.out}")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    from .backtest import BacktestManifest, build_manifest, run_backtest
    from .experiments.env import LOOSE_DEADLINE_FACTOR, TIGHT_DEADLINE_FACTOR
    from .experiments.ext_backtest import report_tables
    from .experiments.runner import _write_json
    from .units import HOURS_PER_DAY

    env = _build_env(args)
    if args.quick:
        n_windows, train_days, test_days = 2, 10.0, 5.0
        n_samples = 40
        apps = ["BT"]
        deadline_factors = [("loose", LOOSE_DEADLINE_FACTOR)]
    else:
        n_windows, train_days, test_days = (
            args.windows, args.train_days, args.test_days
        )
        n_samples = args.samples
        apps = args.apps
        deadline_factors = [
            ("loose", LOOSE_DEADLINE_FACTOR),
            ("tight", TIGHT_DEADLINE_FACTOR),
        ]
    if args.from_manifest:
        manifest = BacktestManifest.load(args.from_manifest)
        print(f"loaded manifest from {args.from_manifest}")
    else:
        manifest = build_manifest(
            env,
            n_windows=n_windows,
            plan_hours=train_days * HOURS_PER_DAY,
            holdout_hours=test_days * HOURS_PER_DAY,
            apps=apps,
            deadline_factors=deadline_factors,
            n_samples=n_samples,
        )
    report = run_backtest(env, manifest, jobs=args.jobs)
    manifest.save(args.manifest)
    tables = report_tables(report)
    for table in tables:
        print(table.format_table())
        print()
    _write_json(tables, env.seed, manifest.n_samples, args.out)
    print(f"wrote manifest to {args.manifest}")
    print(f"wrote JSON results to {args.out}")
    return 0


def _warm_artifacts(args: argparse.Namespace, root: Path) -> None:
    """Pre-populate the store: plan every requested (app, deadline) cell.

    Planning writes every disk artifact there is — search sidecar
    parts and group-table bundles with their survival grids — keyed by
    trace content + engine fingerprint, so any later process over the
    same history (CI test shards, benches, experiment runs) starts
    disk-warm instead of recomputing them.  A plan that computes nothing
    new writes nothing, so re-warming a warm store leaves its file count
    unchanged.
    """
    from .experiments.env import LOOSE_DEADLINE_FACTOR, TIGHT_DEADLINE_FACTOR

    config = DEFAULT_CONFIG.with_(kappa=args.kappa, artifact_dir=str(root))
    env = ExperimentEnv.paper_default(seed=args.seed, config=config)
    factors = [("loose", LOOSE_DEADLINE_FACTOR), ("tight", TIGHT_DEADLINE_FACTOR)]
    for app in args.apps:
        for name, factor in factors:
            problem = env.problem(app, deadline_factor=factor)
            env.sompi_plan(problem)
            print(f"warmed {app}/{name}")


def cmd_artifacts(args: argparse.Namespace) -> int:
    from .execution.artifacts import ArtifactStore, default_artifact_dir

    root = Path(args.dir) if args.dir else default_artifact_dir()
    if root is None:
        print("artifact store disabled (REPRO_ARTIFACT_DIR is empty)")
        return 1
    store = ArtifactStore(root)
    if args.clear:
        removed, freed = store.clear()
        print(f"cleared {removed} artifact(s), freed {freed} bytes")
    elif args.evict or args.max_bytes is not None or args.max_age_days is not None:
        removed, freed = store.evict(
            max_bytes=args.max_bytes, max_age_days=args.max_age_days
        )
        print(f"evicted {removed} artifact(s), freed {freed} bytes")
    if args.warm:
        _warm_artifacts(args, root)
    stats = store.stats()
    print(f"store: {store.root}")
    print(f"{stats['files']} artifact(s), {stats['bytes']} bytes")
    for kind in sorted(stats["by_kind"]):
        entry = stats["by_kind"][kind]
        print(f"  {kind:>12}: {entry['files']:5d} files  {entry['bytes']:12d} bytes")
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import runner

    forwarded = ["--seed", str(args.seed)]
    if args.quick:
        forwarded.append("--quick")
    if args.only:
        forwarded += ["--only", *args.only]
    return runner.main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print the SOMPI plan for a workload")
    _add_common(p_plan)
    p_plan.add_argument("--app", choices=[*PAPER_APPS, "CG", "MG", "LAMMPS"], default="BT")
    p_plan.add_argument("--processes", type=int, default=128)
    p_plan.add_argument("--deadline-factor", type=float, default=1.5)
    p_plan.add_argument("--json", action="store_true", help="emit the plan as JSON")
    p_plan.set_defaults(fn=cmd_plan)

    p_replay = sub.add_parser("replay", help="plan + Monte-Carlo replay")
    _add_common(p_replay)
    p_replay.add_argument("--app", choices=[*PAPER_APPS, "LAMMPS"], default="BT")
    p_replay.add_argument("--processes", type=int, default=128)
    p_replay.add_argument("--deadline-factor", type=float, default=1.5)
    p_replay.add_argument("--samples", type=int, default=300)
    p_replay.add_argument(
        "--semantics", choices=("single-shot", "persistent"), default="single-shot"
    )
    p_replay.set_defaults(fn=cmd_replay)

    p_markets = sub.add_parser("markets", help="summarise the spot markets")
    _add_common(p_markets)
    p_markets.add_argument("--days", type=float, default=7.0)
    p_markets.set_defaults(fn=cmd_markets)

    p_export = sub.add_parser("export-history", help="write the history JSON")
    _add_common(p_export)
    p_export.add_argument("--out", type=str, required=True)
    p_export.set_defaults(fn=cmd_export_history)

    p_bt = sub.add_parser(
        "backtest", help="plan/holdout time-travel backtest (DESIGN.md §11)"
    )
    _add_common(p_bt)
    p_bt.add_argument("--windows", type=int, default=3)
    p_bt.add_argument("--train-days", type=float, default=14.0)
    p_bt.add_argument("--test-days", type=float, default=7.0)
    p_bt.add_argument("--apps", nargs="*", default=["BT"])
    p_bt.add_argument("--samples", type=int, default=150)
    p_bt.add_argument(
        "--quick",
        action="store_true",
        help="smoke settings: 2 windows, 10+5 days, 40 replays, BT loose",
    )
    p_bt.add_argument(
        "--manifest",
        type=str,
        default="backtest_manifest.json",
        help="where to write the window manifest",
    )
    p_bt.add_argument(
        "--from-manifest",
        type=str,
        default=None,
        metavar="PATH",
        help="re-run an existing manifest instead of building one",
    )
    p_bt.add_argument(
        "--out",
        type=str,
        default="experiments_results.json",
        help="where to write the result tables as JSON",
    )
    p_bt.add_argument(
        "--jobs",
        type=jobs_arg,
        default=None,
        metavar="N",
        help="run grid cells in N pooled worker processes "
        "(bit-identical to serial)",
    )
    p_bt.set_defaults(fn=cmd_backtest)

    p_art = sub.add_parser(
        "artifacts", help="inspect, evict from, or clear the artifact store"
    )
    p_art.add_argument(
        "--dir", type=str, default=None, help="store root (default: resolved)"
    )
    p_art.add_argument("--clear", action="store_true", help="remove everything")
    p_art.add_argument(
        "--evict", action="store_true", help="apply the size/age policy now"
    )
    p_art.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="evict least-recently-used artifacts down to this size",
    )
    p_art.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="evict artifacts untouched for longer than this",
    )
    p_art.add_argument(
        "--warm",
        action="store_true",
        help="pre-populate the store by planning every (app, deadline) cell",
    )
    p_art.add_argument(
        "--apps", nargs="*", default=["BT"], help="apps to warm (with --warm)"
    )
    p_art.add_argument("--seed", type=int, default=7)
    p_art.add_argument("--kappa", type=int, default=3)
    p_art.set_defaults(fn=cmd_artifacts)

    p_exp = sub.add_parser("experiments", help="run the paper experiments")
    p_exp.add_argument("--seed", type=int, default=7)
    p_exp.add_argument("--quick", action="store_true")
    p_exp.add_argument("--only", nargs="*", default=None)
    p_exp.set_defaults(fn=cmd_experiments)

    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
