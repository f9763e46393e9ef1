"""Lint-engine benchmark: cold parse vs warm cache replay.

Lints the real ``src/`` tree twice against a throwaway cache file: the
cold run reads, hashes and parses every module, builds the project
graph and iterates the summary fixpoint; the warm run must hit the
fully-warm gate (nothing changed → every finding replays, no parsing).
The suite asserts the runs agree finding-for-finding and that the warm
path really replayed every file, then reports the throughputs.  The
primary metric is the warm time — the one ``make lint`` pays on every
developer invocation; ``summary_fixpoint_s`` isolates the
interprocedural fixpoint's share of the cold run.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.analysis.engine import run_lint
from repro.analysis.registry import get_rules

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_WARM_BURSTS, _BURST_REPEATS, _BURST_SPACING_S = 5, 3, 0.5


def run(quick: bool = False) -> dict:
    root = _REPO_ROOT
    # Quick mode lints the analysis package only (CI smoke); full mode
    # lints everything `make lint` does.
    target = root / ("src/repro/analysis" if quick else "src")
    rules = get_rules()

    with tempfile.TemporaryDirectory(prefix="reprolint-bench-") as tmp:
        cache = Path(tmp) / "cache.json"

        t0 = time.perf_counter()
        cold = run_lint([target], root=root, rules=rules, cache_path=cache)
        t1 = time.perf_counter()
        # Warm replay is a few ms, and a shared host runs whole
        # stretches of a second or more up to 2x slower, so a tight
        # loop of repeats can land entirely in one slow stretch.  Take
        # the best of fifteen repeats, in bursts of three spread over
        # ~2 s, so the 20% regression guard compares the replay path,
        # not the host.
        warm_times = []
        for burst in range(_WARM_BURSTS):
            if burst:
                time.sleep(_BURST_SPACING_S)
            for _ in range(_BURST_REPEATS):
                tw = time.perf_counter()
                warm = run_lint(
                    [target], root=root, rules=rules, cache_path=cache
                )
                warm_times.append(time.perf_counter() - tw)

    cold_s, warm_s = t1 - t0, min(warm_times)
    assert cold.cache_mode == "cold", f"expected cold run, got {cold.cache_mode}"
    assert warm.cache_mode == "full", (
        f"warm run fell off the replay path ({warm.cache_mode}); "
        "the cache fingerprint or dep tracking is broken"
    )
    assert warm.files_replayed == warm.files_checked
    assert [f.to_json() for f in cold.findings] == [
        f.to_json() for f in warm.findings
    ], "cache replay changed the findings"
    summary_stats = cold.summary_stats or {}

    files = cold.files_checked
    return {
        "suite": "lint",
        "files": files,
        "rules": len(rules),
        "metrics": {
            "engine": {
                "cold_s": round(cold_s, 4),
                "warm_s": round(warm_s, 4),
                "cold_files_per_s": round(files / cold_s, 1),
                "warm_files_per_s": round(files / warm_s, 1),
                "speedup": round(cold_s / warm_s, 2) if warm_s > 0 else None,
                "findings": len(cold.findings),
            },
            "summaries": {
                "summary_fixpoint_s": summary_stats.get("fixpoint_s"),
                "sccs": summary_stats.get("sccs"),
                "functions": summary_stats.get("functions"),
            },
        },
        "primary": {"name": "engine.warm_s", "seconds": warm_s},
    }
