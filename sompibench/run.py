#!/usr/bin/env python3
"""SOMPI benchmark: three closed-loop workloads, one waiting client.

Run from the repository root::

    python3 sompibench/run.py --workload plan-sweep --seed 1 --seconds 10 --trace 0
    python3 sompibench/run.py --workload plan-sweep --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``sompibench/README.md``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported (here, in pool
# workers forked from this process and in the CLI subprocesses).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".sompibench"

#: A pass is repeated until the loop has run this long *and* has this
#: many requests, so p90 has at least ten samples beyond it.
MIN_REQUESTS = 100
#: ``setup_s`` is the median of at least MIN_SETUPS set-ups; cheap
#: set-ups are repeated until they add up to SETUP_BUDGET_S.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0
#: Fresh-process CLI runs behind ``cli_s``, after CLI_WARM_RUNS that
#: fill the private store and the page cache.
CLI_RUNS = 9
CLI_WARM_RUNS = 2
IMPORT_RUNS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "cli_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "market.history_s": "s",
    "market.fit_s": "s",
    "market.fits": "count",
    "core.tables_s": "s",
    "core.table_hit_ratio": "ratio",
    "core.subset_eval_s": "s",
    "core.subsets": "count",
    "core.combos": "count",
    "core.combos_per_s": "1/s",
    "core.subset_hit_ratio": "ratio",
    "core.exact_hit_ratio": "ratio",
    "core.plan_s": "s",
    "core.plans": "count",
    "artifacts.load_s": "s",
    "artifacts.save_s": "s",
    "artifacts.hit_ratio": "ratio",
    "artifacts.writes": "count",
    "replay.batch_s": "s",
    "replay.replays": "count",
    "replay.replays_per_s": "1/s",
    "replay.starts_per_batch": "count",
    "replay.sample_s": "s",
    "replay.summary_s": "s",
    "pool.tasks": "count",
    "pool.spawns": "count",
    "pool.shm_hit_ratio": "ratio",
    "pool.worker_busy_frac": "ratio",
    "pool.speedup": "ratio",
    "backtest.cells": "count",
    "backtest.plan_s": "s",
    "backtest.replay_s": "s",
    "backtest.report_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.layer_cover_frac": "ratio",
}


def spin_probe() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed diagnostic."""
    t0 = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return time.perf_counter() - t0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timer_s(snapshot: dict, name: str) -> float:
    """Seconds accumulated by a ``repro.obs`` timer (0 if it never ran)."""
    return snapshot["timers"].get(name, {}).get("seconds", 0.0)


class Run:
    """One benchmark invocation: workload, private work dir, tallies."""

    def __init__(self, workload, work: Path) -> None:
        self.wl = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.reference = None  # request id -> output of the first pass
        self._stores = 0

    def setup(self) -> tuple:
        """Cold set-up on a fresh artifact store; returns (seconds, counters)."""
        from repro import obs

        previous = self.work / f"store-{self._stores}"
        shutil.rmtree(previous, ignore_errors=True)
        self._stores += 1
        store = self.work / f"store-{self._stores}"
        self.wl.teardown()
        obs.reset_metrics()
        t0 = time.perf_counter()
        self.wl.setup(str(store))
        seconds = time.perf_counter() - t0
        return seconds, obs.get_metrics().snapshot()

    def run_pass(self, tracer=None, jobs=None, pass_index=0):
        from repro import obs

        obs.reset_metrics()
        result = self.wl.run_pass(tracer, jobs, pass_index)
        result.snapshot = obs.get_metrics().snapshot()
        self.attempted += result.attempted
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.outputs
        else:
            # The same request must give the same output on every pass.
            self.failed += sum(
                1 for rid, out in result.outputs.items()
                if self.reference.get(rid) != out
            )
        return result

    def digest(self) -> str:
        h = hashlib.sha256()
        for rid in sorted(self.reference, key=str):
            h.update(f"{rid}={self.reference[rid]}\n".encode())
        return h.hexdigest()[:16]

    def subprocess_env(self, store: str) -> dict:
        return dict(os.environ, PYTHONPATH=str(SRC), REPRO_ARTIFACT_DIR=store)


# ----------------------------------------------------------------------
# End-to-end pass (--trace 0)
# ----------------------------------------------------------------------
def measure_end_to_end(run: Run, seconds: float) -> tuple:
    cli = CliTimer(run)
    setups, passes = [], []
    while True:
        setups.append(run.setup()[0])
        passes.append(run.run_pass(pass_index=len(passes)))
        cli.sample()
        wall = sum(p.wall_s for p in passes)
        n_requests = sum(len(p.latencies_ms) for p in passes)
        if wall >= seconds and n_requests >= MIN_REQUESTS:
            break
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        setups.append(run.setup()[0])
        cli.sample()
    children_mb = max(p.children_rss_mb for p in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + children_mb
    run.wl.close()
    latencies = [ms for p in passes for ms in p.latencies_ms]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    cli_s = cli.finish()
    return {
        "setup_s": statistics.median(setups),
        "work_per_s": sum(p.work for p in passes) / wall,
        "request_p50_ms": cuts[4],
        "request_p90_ms": cuts[8],
        "cli_s": cli_s,
        "peak_rss_mb": peak_rss_mb,
    }, {
        "passes": len(passes),
        "requests": len(latencies),
        "setup_samples_s": [round(s, 4) for s in setups],
        "pass_walls_s": [round(p.wall_s, 3) for p in passes],
        "pool_children_rss_mb": round(children_mb, 1),
        "cli_samples_s": [round(t, 3) for t in cli.times],
    }


class CliTimer:
    """Fresh-process runs of the workload's CLI counterpart on a private,
    disk-warm store.

    The timed runs are spread over the whole run (one after each pass and
    each extra set-up), so their median sees the machine over the same
    stretch of time as the other metrics, not over a few seconds.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        self.argv = [sys.executable, "-m", "repro.cli", *run.wl.cli_args(run.work)]
        self.env = run.subprocess_env(str(run.work / "cli-store"))
        self.times: list = []
        self.stdouts: set = set()
        self.left = CLI_RUNS
        for _ in range(CLI_WARM_RUNS):
            self._once()

    def _once(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=self.run.work,
                              capture_output=True, text=True, timeout=150)
        elapsed = time.perf_counter() - t0
        self.run.attempted += 1
        if proc.returncode != 0:
            self.run.failed += 1
            sys.stderr.write(proc.stderr[-2000:])
            return None
        self.stdouts.add(proc.stdout)
        return elapsed

    def sample(self) -> None:
        if self.left > 0:
            self.left -= 1
            elapsed = self._once()
            if elapsed is not None:
                self.times.append(elapsed)

    def finish(self) -> float:
        while self.left > 0:
            self.sample()
        if len(self.stdouts) > 1:  # the CLI output is deterministic
            self.run.failed += 1
        if not self.times:
            raise RuntimeError("every CLI run failed")
        return statistics.median(self.times)


# ----------------------------------------------------------------------
# Traced pass (--trace 1)
# ----------------------------------------------------------------------
def install_spans(tracer) -> None:
    """Wrap the public calls at each layer boundary."""
    import repro.backtest.harness as harness
    import repro.execution.montecarlo as montecarlo
    import repro.experiments.env as env_module
    from repro.core.optimizer import SompiOptimizer
    from repro.core.two_level import TwoLevelOptimizer
    from repro.execution.artifacts import ArtifactStore
    from repro.execution.results import MonteCarloSummary

    tracer.wrap(env_module, "build_history", "market.history")
    tracer.wrap(env_module, "build_failure_models", "market.fit", count=len)
    tracer.wrap(harness, "build_failure_models", "market.fit", count=len)
    tracer.wrap(SompiOptimizer, "plan", "core.plan")
    tracer.wrap(TwoLevelOptimizer, "group_table", "core.tables", first_per_self=True)
    tracer.wrap(TwoLevelOptimizer, "optimize_subset", "core.subset_eval")
    tracer.wrap(ArtifactStore, "load", "artifacts.load")
    tracer.wrap(ArtifactStore, "save", "artifacts.save")
    tracer.wrap(montecarlo, "sample_start_times", "replay.sample")
    tracer.wrap(montecarlo, "replay_batch", "replay.batch", count=len)
    tracer.wrap(MonteCarloSummary, "from_results", "replay.summary")


def traced_pass(run: Run, jobs=None):
    """A traced set-up followed by a traced pass; returns (tracer, pass, setup counters)."""
    from spans import Tracer

    tracer = Tracer()
    install_spans(tracer)
    try:
        _seconds, setup_snapshot = run.setup()
        result = run.run_pass(tracer, jobs)
    finally:
        tracer.unwrap_all()
    return tracer, result, setup_snapshot


def layer_metrics(tracer, result) -> dict:
    counters = result.snapshot["counters"]
    # Set-up builds the history; every other layer is read from the
    # pass's own request spans.
    history_s = tracer.self_times()["market.history"]
    self_s = tracer.self_times(request_only=True)
    calls = tracer.calls()

    def total(prefix):
        return sum(v for k, v in counters.items() if k.startswith(prefix))

    table_hits, table_misses = total("cache.table_hits"), total("cache.table_misses")
    subset_hits, subset_misses = total("cache.subset_hits"), total("cache.subset_misses")
    exact_hits, exact_misses = total("cache.exact_hits"), total("cache.exact_misses")
    art_hits = total("cache.artifact_hits.")
    art_lookups = art_hits + total("cache.artifact_misses.") + total("cache.artifact_errors.")
    replays = tracer.counts["replay.batch"]
    layer_self = sum(v for k, v in self_s.items() if k != "request")
    return {
        "market.history_s": history_s,
        "market.fit_s": self_s["market.fit"],
        "market.fits": tracer.counts["market.fit"],
        "core.tables_s": self_s["core.tables"],
        "core.table_hit_ratio": ratio(table_hits, table_hits + table_misses),
        "core.subset_eval_s": self_s["core.subset_eval"],
        "core.subsets": calls["core.subset_eval"],
        "core.combos": counters.get("plan.combos_evaluated", 0),
        "core.combos_per_s": ratio(counters.get("plan.combos_evaluated", 0),
                                   self_s["core.subset_eval"]),
        "core.subset_hit_ratio": ratio(subset_hits, subset_hits + subset_misses),
        "core.exact_hit_ratio": ratio(exact_hits, exact_hits + exact_misses),
        "core.plan_s": self_s["core.plan"],
        "core.plans": calls["core.plan"],
        "artifacts.load_s": self_s["artifacts.load"],
        "artifacts.save_s": self_s["artifacts.save"],
        "artifacts.hit_ratio": ratio(art_hits, art_lookups),
        "artifacts.writes": total("cache.artifact_writes."),
        "replay.batch_s": self_s["replay.batch"],
        "replay.replays": replays,
        "replay.replays_per_s": ratio(replays, self_s["replay.batch"]),
        "replay.starts_per_batch": ratio(replays, calls["replay.batch"]),
        "replay.sample_s": self_s["replay.sample"],
        "replay.summary_s": self_s["replay.summary"],
        "backtest.plan_s": timer_s(result.snapshot, "backtest.plan"),
        "backtest.replay_s": timer_s(result.snapshot, "backtest.replay"),
        "backtest.report_s": self_s["backtest.report"],
        "backtest.cells": counters.get("backtest.cells", 0),
        "trace.layer_cover_frac": ratio(layer_self, result.wall_s),
    }


def pool_metrics(result, setup_snapshot, jobs: int) -> dict:
    counters = result.snapshot["counters"]
    busy = (timer_s(result.snapshot, "backtest.plan")
            + timer_s(result.snapshot, "backtest.replay"))
    parallel = timer_s(result.snapshot, "backtest.parallel")
    hits = counters.get("cache.shm_pool_hits", 0)
    misses = counters.get("cache.shm_pool_misses", 0)
    return {
        "pool.tasks": counters.get("pool.tasks", 0),
        "pool.spawns": counters.get("pool.spawns", 0)
        + setup_snapshot["counters"].get("pool.spawns", 0),
        "pool.shm_hit_ratio": ratio(hits, hits + misses),
        "pool.worker_busy_frac": ratio(busy, jobs * parallel),
    }


def cli_import_seconds(run: Run) -> float:
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    env = run.subprocess_env(str(run.work / "cli-store"))
    samples = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.work,
                              capture_output=True, text=True, timeout=60)
        run.attempted += 1
        if proc.returncode != 0:
            run.failed += 1
            continue
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples) if samples else 0.0


def measure_layers(run: Run) -> tuple:
    """Untraced pass, traced pass, untraced pass, all in the same order.

    The first pass also warms the process (a process's first pass runs
    up to 20% slower), so the tracing overhead compares the traced pass
    with the untraced pass after it.
    """
    wl = run.wl
    run.setup()
    run.run_pass()
    tracer, traced, setup_snapshot = traced_pass(run)
    run.setup()
    untraced = run.run_pass()
    metrics = layer_metrics(tracer, traced)
    metrics.update(pool_metrics(traced, setup_snapshot, wl.jobs))
    metrics["pool.speedup"] = 0.0
    if wl.jobs > 1:
        # A jobs=1 reference of the same grid: the in-process spans give
        # the layer breakdown the pool workers cannot report, and its
        # wall against the parallel pass gives the pool's speed-up.
        tracer, reference, _ = traced_pass(run, jobs=1)
        pool_side = {k: metrics[k] for k in (
            "backtest.plan_s", "backtest.replay_s", "backtest.cells")}
        metrics.update(layer_metrics(tracer, reference))
        metrics.update(pool_side)
        metrics["pool.speedup"] = ratio(reference.wall_s, traced.wall_s)
    wl.close()
    metrics["trace.overhead_frac"] = 1.0 - ratio(
        traced.work / traced.wall_s, untraced.work / untraced.wall_s)
    metrics["cli.import_s"] = cli_import_seconds(run)
    tracer.dump(WORK_ROOT / f"spans-{wl.name}.jsonl")
    return metrics, {"traced_wall_s": round(traced.wall_s, 3),
                     "untraced_wall_s": round(untraced.wall_s, 3)}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"sompibench: {SRC}/repro not found; run from the repository root",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"sompibench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    # Never the user's default store: every run owns a private one.
    os.environ["REPRO_ARTIFACT_DIR"] = str(work / "default-store")
    spin_start = spin_probe()
    run = Run(WORKLOADS[args.workload](args.seed), work)
    try:
        if args.trace:
            metrics, info = measure_layers(run)
            units = LAYER_UNITS
        else:
            metrics, info = measure_end_to_end(run, args.seconds)
            units = END_TO_END_UNITS
    finally:
        run.wl.close()
        shutil.rmtree(work, ignore_errors=True)
        # The shm registry started multiprocessing's resource tracker;
        # stop it and wait for it rather than leave it to exit after us.
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    spin_end = spin_probe()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    info["cpu_user_sys_s"] = [round(usage.ru_utime, 2), round(usage.ru_stime, 2)]

    print(f"sompibench {args.workload} seed={args.seed} trace={args.trace}")
    for name in units:
        print(f"  {name:<26} {metrics[name]:.6g} {units[name]}")
    for key, value in info.items():
        print(f"  ({key} {value})")
    print(f"  (spin_probe_s start {spin_start:.4f} end {spin_end:.4f})")
    print(f"  failed_frac {ratio(run.failed, run.attempted):.6g} "
          f"({run.failed}/{run.attempted})")
    print(f"  digest {run.digest()}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
