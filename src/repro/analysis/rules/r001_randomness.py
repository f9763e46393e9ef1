"""R001 — every random draw and clock read descends from the root seed.

Every Monte-Carlo path in the reproduction must be a pure function of
its seed (the bit-identity contracts of DESIGN.md §6–§8 and §12 depend
on it): ``sim.rng.derive_seed`` hashes ``(root_seed, name)`` and the
registry hands out named ``Generator`` streams from it.  One
project-scope rule guards that lineage.

**Scope.** Every module of the seeded packages
(:data:`SEEDED_PACKAGES`) and of ``benchmarks/``, plus every
worker-reachable function in any package: the escape analysis
(:mod:`..escape`) closes over everything a ``pool.submit`` /
``run_ordered`` / ``map`` or executor-initializer boundary can run, and
a job must be a pure function of its submitted ``(seed, cell)``
payload wherever it lives.

**Unseeded APIs** (one check, whole module in the seeded scope, the
function body elsewhere):

* the stdlib ``random`` module — its import, and calls through an
  alias of it;
* ``np.random`` global functions (``np.random.seed/rand/normal/...``),
  resolved through the module's import table;
* the banned wall clocks (``time.time``, ``datetime.now``, ...;
  ``time.perf_counter`` stays allowed as a wall timer).

**Seed lineage** (:func:`~..dataflow.analyze_entropy`, once per
function): ``default_rng()``/``SeedSequence()`` with no seed draw OS
entropy, and a seed provably derived from process state — clocks,
pids, ``os.urandom``, through any number of call hops via the summary
fixpoint, and through instance fields assigned from process state in
another method — breaks replay.  In worker-reachable code, reads of
module globals some function mutates are process state too.

**Module-level generator state** — ``_RNG = default_rng(...)`` at
module scope is a hidden stream shared by every importer: consumption
order becomes part of the seed lineage, so generators live in function
or instance scope and are threaded explicitly.

A site yields one finding; a hit inside worker-reachable code names
the worker entry it runs under.  Unresolvable calls contribute nothing
(confident-or-absent).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Tuple

from ..dataflow import (
    BANNED_CLOCK_ATTRS,
    SEED_SINK_LEAVES,
    EntropyTaint,
    analyze_entropy,
)
from ..escape import walk_shallow
from ..findings import Finding
from ..project import FuncKey
from ..registry import Rule, in_benchmarks, in_packages, register
from ..symbols import FunctionInfo, ModuleSymbols, dotted_name, leaf_name

#: Packages whose results must be a pure function of the seed.  The
#: backtest harness and the rng plumbing itself belong here: a lineage
#: break in ``sim.rng`` would poison every consumer.
SEEDED_PACKAGES = (
    "core", "execution", "market", "mpi", "backtest", "sim", "experiments"
)

#: ``np.random`` attributes that are part of the *seeded* API.
ALLOWED_NP_RANDOM = frozenset(
    {"Generator", "default_rng", "SeedSequence", "BitGenerator",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}
)

_NP_RANDOM = ("np.random", "numpy.random")

_REMEDY = (
    "every stream must descend from the experiment's root seed "
    "(sim.rng.derive_seed / RngRegistry)"
)


def _resolve(syms: ModuleSymbols, dotted: str) -> str:
    """``dotted`` with its head replaced by the imported module path."""
    head, _, rest = dotted.partition(".")
    target = syms.imports.get(head, head)
    return f"{target}.{rest}" if rest else target


def _api_issues(
    nodes: Iterable[ast.AST], syms: ModuleSymbols
) -> Iterator[Tuple[ast.AST, str]]:
    """Unseeded-API sites among ``nodes``: stdlib random, np globals, clocks."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, (
                        "imports stdlib 'random', unseeded global state; "
                        "use a seeded np.random.Generator (sim.rng)"
                    )
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == "random":
                yield node, (
                    "imports from stdlib 'random', unseeded global state; "
                    "use a seeded np.random.Generator (sim.rng)"
                )
            elif mod in _NP_RANDOM:
                for alias in node.names:
                    if alias.name not in ALLOWED_NP_RANDOM:
                        yield node, (
                            f"imports numpy.random.{alias.name}, the "
                            "unseeded global stream; use "
                            "np.random.default_rng(seed)"
                        )
        elif isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted in BANNED_CLOCK_ATTRS:
                yield node, (
                    f"reads the wall clock via {dotted}(); results differ "
                    "run to run — thread times through arguments or the "
                    "job payload"
                )
                continue
            head, _, attr = dotted.rpartition(".")
            if attr not in ALLOWED_NP_RANDOM and (
                head in _NP_RANDOM or _resolve(syms, head) == "numpy.random"
            ):
                yield node, (
                    f"{dotted} uses numpy's unseeded global stream; "
                    "use np.random.default_rng(seed)"
                )
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            head, dot, _ = dotted.partition(".")
            if dot and syms.imports.get(head) == "random":
                yield node, (
                    f"calls stdlib {dotted}(); the global random state is "
                    "per-process — use a Generator derived from the seed"
                )


@register
class SeedLineage(Rule):
    id = "R001"
    title = "every random draw and clock read descends from the root seed"
    scope = "project"
    needs_escape = True
    needs_summaries = True
    description = (
        "In src/repro/{core,execution,market,mpi,backtest,sim,experiments}, "
        "benchmarks/, and every function reachable from a WorkerPool."
        "submit/run_ordered/map or executor-initializer boundary in any "
        "package: no stdlib random, no np.random global functions, no "
        "banned wall-clock reads (time.time, datetime.now), no "
        "default_rng()/SeedSequence() without a seed, no seed derived "
        "from process state (clocks, pids, os.urandom, mutated module "
        "globals in worker code) through call chains or instance fields, "
        "and no module-level generator state."
    )
    help_uri = "DESIGN.md#9-static-analysis"

    def check_project(self, ctx) -> Iterator[Finding]:
        graph, escape, summaries = ctx.project, ctx.escape, ctx.summaries
        if graph is None or escape is None or summaries is None:
            return
        workers_of: Dict[str, List[FunctionInfo]] = {}
        for key in sorted(escape.worker_reachable):
            info = graph.functions.get(key)
            if info is not None:
                workers_of.setdefault(info.module, []).append(info)

        for relpath in sorted(graph.by_relpath):
            syms = graph.by_relpath[relpath]
            unit = ctx.units.get(relpath)
            workers = workers_of.get(syms.module, [])
            seeded = in_packages(relpath, SEEDED_PACKAGES) or in_benchmarks(
                relpath
            )
            if unit is None or not (seeded or workers):
                continue
            # One finding per site; the first message claims it, so a
            # clock read that seeds a generator reports the lineage.
            found: Dict[Tuple[int, int], str] = {}
            label: Dict[FuncKey, str] = {}
            where: Dict[int, str] = {}
            for info in workers:
                label[info.key] = (
                    f"in {info.qualname}() (worker-reachable, entry "
                    f"{escape.entry_name(info.key)})"
                )
                for node in walk_shallow(info.node):
                    where[id(node)] = label[info.key]

            if seeded:
                for call in _module_generators(unit.tree):
                    found.setdefault(
                        (call.lineno, call.col_offset),
                        f"module-level {leaf_name(call.func)}(...) is a "
                        "hidden stream shared by every importer — "
                        "consumption order becomes part of the seed "
                        "lineage; construct generators in function or "
                        "instance scope and thread them explicitly",
                    )
                for issue in EntropyTaint().run(unit.tree.body).issues:
                    found.setdefault(
                        (issue.lineno, issue.col),
                        f"at module scope, {issue.source}; {_REMEDY}",
                    )

            written = escape.written_globals(syms.module) if workers else None
            functions = syms.functions.values() if seeded else workers
            for info in sorted(functions, key=lambda i: i.qualname):
                issues = analyze_entropy(
                    info.node,
                    process_globals=written if info.key in label else None,
                    call_resolver=summaries.entropy_resolver(info),
                    sink_param_resolver=summaries.sink_resolver(info),
                    tainted_fields=summaries.entropy_fields_for(info),
                )
                prefix = label.get(info.key, f"in {info.qualname}()")
                for issue in issues:
                    found.setdefault(
                        (issue.lineno, issue.col),
                        f"{prefix}, {issue.source}; {_REMEDY}",
                    )

            nodes = (
                ast.walk(unit.tree)
                if seeded
                else (n for info in workers for n in walk_shallow(info.node))
            )
            for node, message in _api_issues(nodes, syms):
                prefix = where.get(id(node))
                found.setdefault(
                    (node.lineno, node.col_offset),
                    f"{prefix}, {message}" if prefix else message,
                )

            for (line, col), message in found.items():
                yield self.finding(unit, line, col, message)


def _module_generators(tree: ast.Module) -> Iterator[ast.Call]:
    """``default_rng``/``SeedSequence`` calls in module-level assignments."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
            for sub in ast.walk(stmt.value):
                if (
                    isinstance(sub, ast.Call)
                    and leaf_name(sub.func) in SEED_SINK_LEAVES
                ):
                    yield sub
