"""reprolint — AST-based invariant linter for the reproduction.

A self-contained static-analysis pass (stdlib ``ast`` only, no imports
of the simulation code) that rejects classes of bugs the tier-1 suite
misses: unseeded randomness and clock reads in seeded code,
unregistered memo caches, bare float equality, swallowed exceptions,
unaudited cost ledgers, float reductions over sets, and fail-open
paths that leak IO errors.  DESIGN.md §9 documents the rule set, the
mutation each rule catches, and the workflow.

Every lint builds a :class:`~.project.ProjectGraph` (import graph,
symbol tables, call graph) when any selected rule needs it;
interprocedural summaries (:mod:`.summaries`) carry exception facts
across calls; and a content-hash cache (:mod:`.cache`) replays findings
for unchanged files, including a fully-warm path that parses nothing.

Run it as ``python -m repro.analysis [paths]`` or ``make lint``.
Programmatic entry points:

>>> from repro.analysis import run_lint, get_rules, Baseline
>>> result = run_lint(["src"], root=repo_root,
...                   baseline=Baseline.load(baseline_path))
>>> result.exit_code()
0
"""

from .baseline import Baseline, BaselineEntry, DEFAULT_BASELINE_NAME
from .cache import DEFAULT_CACHE_NAME, LintCache
from .engine import LintContext, LintResult, ModuleUnit, load_unit, run_lint
from .findings import Finding, Severity
from .project import ProjectGraph
from .registry import RULES, Rule, get_rules, register

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_CACHE_NAME",
    "Finding",
    "LintCache",
    "LintContext",
    "LintResult",
    "ModuleUnit",
    "ProjectGraph",
    "RULES",
    "Rule",
    "Severity",
    "get_rules",
    "load_unit",
    "register",
    "run_lint",
]
