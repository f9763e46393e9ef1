"""Rule base class and registry.

Rules are small stateless objects: ``check(unit, ctx)`` yields
:class:`~.findings.Finding` objects for one parsed module.  They
register themselves at import time via the :func:`register` decorator,
so adding a rule is: drop a module into :mod:`repro.analysis.rules`,
import it from that package's ``__init__``, done (DESIGN.md §9).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Type

from .findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover
    from .engine import LintContext, ModuleUnit

_RULE_ID_RE = re.compile(r"^R\d{3}$")

RULES: Dict[str, "Rule"] = {}
"""All registered rules, keyed by id (populated on rules import)."""


class Rule:
    """One lint rule.

    Subclasses set ``id`` (``R\\d{3}``), ``title``, ``severity`` and a
    one-paragraph ``description`` (shown by ``--list-rules``), override
    :meth:`check` (or :meth:`check_project` for ``scope = "project"``),
    and optionally :meth:`applies` to scope themselves to a subset of
    the tree.

    Two graph knobs drive dispatch and cache keying:

    * ``scope`` — ``"file"`` rules run per module via :meth:`check`;
      ``"project"`` rules run once per lint via :meth:`check_project`
      and see the whole :class:`~.project.ProjectGraph`.  The cache
      replays file-scope findings per file and re-runs project-scope
      rules whenever *any* file changes.
    * ``needs_summaries`` — the rule consumes the interprocedural
      fixpoint summaries (:mod:`.summaries`): the engine builds
      ``ctx.summaries`` on top of the graph only on demand, and the
      cache replays them per call-graph SCC.
    """

    id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    scope: str = "file"  # "file" | "project"
    needs_summaries: bool = False

    @property
    def needs_graph(self) -> bool:
        return self.scope == "project" or self.needs_summaries

    def applies(self, relpath: str) -> bool:
        """Whether this rule runs on the module at ``relpath`` (posix)."""
        return True

    def check(self, unit: "ModuleUnit", ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, ctx: "LintContext") -> Iterator[Finding]:
        """Project-scope entry: ``ctx.project`` holds the graph.

        Findings must still be built against the :class:`ModuleUnit`
        they belong to (via :meth:`finding`) so paths, source lines and
        suppressions resolve normally.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(
        self,
        unit: "ModuleUnit",
        line: int,
        col: int,
        message: str,
    ) -> Finding:
        """Build a finding for this rule at ``(line, col)`` of ``unit``."""
        code = ""
        if 1 <= line <= len(unit.lines):
            code = unit.lines[line - 1].strip()
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=unit.relpath,
            line=line,
            col=col,
            message=message,
            code=code,
        )


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add to :data:`RULES`."""
    if not _RULE_ID_RE.match(cls.id or ""):
        raise ValueError(f"rule id must match R\\d{{3}}, got {cls.id!r}")
    if cls.id in RULES and type(RULES[cls.id]) is not cls:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls()
    return cls


def get_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Registered rules, optionally restricted to ``select`` ids."""
    from . import rules as _rules  # noqa: F401  (registers on import)

    if select is None:
        return [RULES[rid] for rid in sorted(RULES)]
    out = []
    for rid in select:
        rid = rid.strip().upper()
        if rid not in RULES:
            raise KeyError(f"unknown rule {rid!r}; known: {', '.join(sorted(RULES))}")
        out.append(RULES[rid])
    return out


def in_packages(relpath: str, packages: tuple[str, ...]) -> bool:
    """True when ``relpath`` lies under ``repro/<pkg>/`` for some pkg.

    Matches anywhere in the path so both the real tree
    (``src/repro/core/x.py``) and test fixtures rooted elsewhere work.
    """
    parts = relpath.split("/")
    for i, part in enumerate(parts[:-1]):
        if part == "repro" and i + 1 < len(parts) and parts[i + 1] in packages:
            return True
    return False


def in_benchmarks(relpath: str) -> bool:
    """True when ``relpath`` lies under a ``benchmarks/`` directory.

    The benchmark suite is figure-generation and measurement code: it
    must stay deterministic (R001) and honest about comparisons
    and failures (R005/R006), but it is not library API.
    """
    return relpath.startswith("benchmarks/") or "/benchmarks/" in relpath
