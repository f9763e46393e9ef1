"""R001 — no unseeded randomness and no wall clocks in seeded code.

Every Monte-Carlo path in the reproduction must be a pure function of
its seed (the bit-identity contracts of DESIGN.md §6–§8 and §12 depend
on it): ``sim.rng.derive_seed`` hashes ``(root_seed, name)`` and the
registry hands out named ``Generator`` streams from it.

**Scope.** Every module of the seeded packages
(:data:`SEEDED_PACKAGES`) and of ``benchmarks/``.

**Flagged sites**, one finding each:

* the stdlib ``random`` module — its import, and calls through an
  alias of it;
* ``np.random`` global functions (``np.random.seed/rand/normal/...``),
  resolved through the module's import table;
* the banned wall clocks (``time.time``, ``datetime.now``, ...;
  ``time.perf_counter`` stays allowed as a wall timer);
* ``default_rng()``/``SeedSequence()`` with no seed, which draw OS
  entropy;
* module-level generator state: ``_RNG = default_rng(...)`` at module
  scope is a hidden stream shared by every importer, so consumption
  order becomes part of the seed lineage.

The rule is per file and does not follow a seed through calls.  A seed
salted with process state on its way to a worker (a pid folded into
the backtest's ``RngRegistry``) is held by the tier-1 serial/pooled
identity tests instead (DESIGN.md §9).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from ..findings import Finding
from ..registry import Rule, in_benchmarks, in_packages, register
from ..symbols import dotted_name, extract_symbols, leaf_name

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

#: Dotted wall-clock reads that make results run-dependent; leaves
#: alone don't work since ``history.today`` is not a clock.
BANNED_CLOCK_ATTRS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.today", "date.today", "datetime.datetime.now",
     "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today"}
)

#: Call leaves that build a generator from a seed.
SEED_SINK_LEAVES = frozenset({"default_rng", "SeedSequence"})

_NP_RANDOM = ("np.random", "numpy.random")


def _violation(node: ast.AST, imports: Dict[str, str]) -> str:
    """Why ``node`` breaks the seed contract, or ``""``."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                return (
                    "imports stdlib 'random', unseeded global state; "
                    "use a seeded np.random.Generator (sim.rng)"
                )
    elif isinstance(node, ast.ImportFrom):
        mod = node.module or ""
        if mod == "random":
            return (
                "imports from stdlib 'random', unseeded global state; "
                "use a seeded np.random.Generator (sim.rng)"
            )
        if mod in _NP_RANDOM:
            for alias in node.names:
                if alias.name not in ALLOWED_NP_RANDOM:
                    return (
                        f"imports numpy.random.{alias.name}, the unseeded "
                        "global stream; use np.random.default_rng(seed)"
                    )
    elif isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted in BANNED_CLOCK_ATTRS:
            return (
                f"reads the wall clock via {dotted}(); results differ run "
                "to run — thread times through arguments or the job payload"
            )
        head, _, attr = dotted.rpartition(".")
        first, _, rest = head.partition(".")
        resolved = imports.get(first, first) + (f".{rest}" if rest else "")
        if attr not in ALLOWED_NP_RANDOM and (
            head in _NP_RANDOM or resolved == "numpy.random"
        ):
            return (
                f"{dotted} uses numpy's unseeded global stream; "
                "use np.random.default_rng(seed)"
            )
    elif isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        head, dot, _ = dotted.partition(".")
        if dot and imports.get(head) == "random":
            return (
                f"calls stdlib {dotted}(); the global random state is "
                "per-process — use a Generator derived from the seed"
            )
        if leaf_name(node.func) in SEED_SINK_LEAVES and not (
            node.args or node.keywords
        ):
            return (
                f"{dotted}() with no seed draws OS entropy; every stream "
                "must descend from the experiment's root seed "
                "(sim.rng.derive_seed / RngRegistry)"
            )
    return ""


@register
class UnseededRandomness(Rule):
    id = "R001"
    title = "no unseeded randomness or wall-clock reads in seeded code"
    description = (
        "In src/repro/{core,execution,market,mpi,backtest,sim,experiments} "
        "and benchmarks/: no stdlib random, no np.random global "
        "functions, no banned wall-clock reads (time.time, datetime.now), "
        "no default_rng()/SeedSequence() without a seed, and no "
        "module-level generator state."
    )

    def applies(self, relpath: str) -> bool:
        return in_packages(relpath, SEEDED_PACKAGES) or in_benchmarks(relpath)

    def check(self, unit, ctx) -> Iterator[Finding]:
        imports = extract_symbols(unit).imports
        # One finding per site; the module-level generator message
        # claims its call before the unseeded-call message can.
        found: Dict[Tuple[int, int], str] = {}
        for call in _module_generators(unit.tree):
            found[(call.lineno, call.col_offset)] = (
                f"module-level {leaf_name(call.func)}(...) is a hidden "
                "stream shared by every importer — consumption order "
                "becomes part of the seed lineage; construct generators "
                "in function or instance scope and thread them explicitly"
            )
        for node, where in _walk_with_scope(unit.tree):
            message = _violation(node, imports)
            if message:
                found.setdefault(
                    (node.lineno, node.col_offset),
                    f"in {where}(), {message}" if where else message,
                )
        for (line, col), message in found.items():
            yield self.finding(unit, line, col, message)


def _walk_with_scope(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Every node with the qualname of its innermost enclosing def."""
    stack = [(child, "", "") for child in ast.iter_child_nodes(tree)]
    while stack:
        node, where, prefix = stack.pop()
        yield node, where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = prefix = f"{prefix}{node.name}"
            prefix += "."
        elif isinstance(node, ast.ClassDef):
            prefix = f"{prefix}{node.name}."
        stack.extend((c, where, prefix) for c in ast.iter_child_nodes(node))


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
