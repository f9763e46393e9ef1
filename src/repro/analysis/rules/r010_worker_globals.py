"""R010 — no worker-side writes to module globals (lost updates).

A function submitted to the :class:`~repro.execution.pool.WorkerPool`
runs in a forked/spawned child: any module global it rebinds or mutates
changes *that worker's* interpreter only and silently vanishes from the
parent's results — the classic "it worked serially" bug.  The escape
analysis (:mod:`..escape`) computes every function reachable from a
``submit``/``run_ordered``/``map``/``initializer=`` boundary; this rule
flags each module-global write inside that closure.

Two patterns are sanctioned by design:

* **the metric-snapshot merge** (PR 8): workers accumulate into
  :mod:`repro.obs` and return ``metrics.snapshot()`` for the parent to
  ``merge_snapshot`` — the rule only checks the deterministic packages
  (core/execution/market/mpi), so obs-side accumulation never fires;
* **registered shared caches**: a global referenced (transitively) by a
  clearer the module registers via ``register_cache_clearer`` is a
  declared per-process cache with a managed lifecycle — worker-side
  cache fills (kernel tables, planner tables) are the *point* of the
  warm pool, and ``clear_shared_caches()`` can always drop them.
"""

from __future__ import annotations

from typing import Iterator

from ..escape import registered_clearers
from ..findings import Finding
from ..registry import Rule, in_packages, register

#: Packages whose worker-side state must round-trip through returns.
CHECKED_PACKAGES = ("core", "execution", "market", "mpi")


@register
class WorkerGlobalWrites(Rule):
    id = "R010"
    title = "no worker-side writes to module globals outside registered caches"
    scope = "project"
    needs_escape = True
    description = (
        "A module global written by a function reachable from a "
        "WorkerPool.submit/run_ordered/map or executor-initializer "
        "boundary only changes the worker's interpreter; the parent "
        "never sees the update. Return the state instead (the PR-8 "
        "metric-snapshot merge pattern) or declare it a shared cache by "
        "referencing it from a register_cache_clearer-registered "
        "clearer. Checked in core/execution/market/mpi; repro.obs "
        "accumulation (merged by the parent) is out of scope by design."
    )
    help_uri = "DESIGN.md#13-process-safety-escape-analysis"

    def check_project(self, ctx) -> Iterator[Finding]:
        escape = getattr(ctx, "escape", None)
        graph = ctx.project
        if escape is None or graph is None:
            return
        for key in sorted(escape.worker_reachable):
            info = graph.functions.get(key)
            syms = graph.modules.get(key[0]) if info else None
            if info is None or syms is None:
                continue
            if not in_packages(syms.relpath, CHECKED_PACKAGES):
                continue
            unit = ctx.units.get(syms.relpath)
            if unit is None:
                continue
            clearers = registered_clearers(syms)
            if info.qualname in clearers or info.name in clearers:
                continue  # teardown itself may reset the state it owns
            sanctioned = escape.sanctioned_names(info.module)
            for write in escape.global_writes(key):
                if write.name in sanctioned:
                    continue
                verb = (
                    "rebinds" if write.kind == "rebind" else "mutates"
                )
                yield self.finding(
                    unit, write.lineno, write.col,
                    f"{info.qualname}() {verb} module global "
                    f"{write.name!r} but is worker-reachable (submitted "
                    f"entry {escape.entry_name(key)}); the write never "
                    "propagates back to the parent — return the state, "
                    "or register a clearer that manages it",
                )
