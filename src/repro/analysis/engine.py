"""Lint driver: discovery, parsing, caching, rule dispatch.

The engine is deliberately import-free of the hot simulation paths — it
touches only ``ast``, ``pathlib`` and the sibling lint modules, so
``make lint`` never pays (or perturbs) a model import.

A run has four phases:

1. **Read + hash** every discovered file (serially: a thread pool
   measured slower than a plain loop on the repo's ~150 small files).
2. **Cache gate** — with a cache attached and *nothing* changed (same
   engine fingerprint, same file set and hashes), every finding replays
   from the cache and no parsing happens at all.  Otherwise:
3. **Parse** all files (serially — ``ast.parse`` holds the GIL), build
   the :class:`~.project.ProjectGraph` when any selected rule needs it,
   and dispatch: file-scope rules run per module (replaying per-file from
   the cache when that file's hash is unchanged), project-scope rules
   run once over the graph.
4. **Reconcile** against the baseline (:mod:`.baseline`).

Suppressions
------------
A finding on line ``L`` is suppressed when line ``L`` — or a
comment-only line ``L-1`` directly above it — carries::

    # reprolint: disable=R001            -- optional reason
    # reprolint: disable=R001,R005       -- multiple rules
    # reprolint: disable=all

``# reprolint: skip-file`` anywhere in a module skips its findings
entirely (the module still contributes symbols to the project graph).
Suppressions are for *point* exemptions whose justification fits on the
line; findings grandfathered wholesale live in the baseline file
instead (:mod:`.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .baseline import Baseline, BaselineEntry
from .findings import Finding, Severity
from .registry import Rule, get_rules

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+?)\s*(?:--.*)?$"
)
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file\b")
_COMMENT_ONLY_RE = re.compile(r"^\s*#")

#: Rule id used for findings the engine itself emits (unparseable file).
PARSE_RULE = "R000"


@dataclass
class ModuleUnit:
    """One parsed module plus its per-line suppression table."""

    path: Path  # absolute
    relpath: str  # posix, relative to the lint root
    source: str
    lines: List[str]
    tree: ast.Module
    suppressions: Dict[int, set]  # 1-based line -> {"R001", ...} or {"all"}

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Inline suppression on the line or a comment line just above."""
        for cand in (line, line - 1):
            rules = self.suppressions.get(cand)
            if not rules:
                continue
            if cand == line - 1 and not _COMMENT_ONLY_RE.match(
                self.lines[cand - 1] if 1 <= cand <= len(self.lines) else ""
            ):
                continue  # trailing suppression governs its own line only
            if "all" in rules or rule_id in rules:
                return True
        return False

    @property
    def skip_file(self) -> bool:
        return bool(_SKIP_FILE_RE.search(self.source))


@dataclass
class LintContext:
    """Shared state rules may consult (root, parsed units, project graph)."""

    root: Path
    project: Optional["object"] = None  # ProjectGraph when a rule needs it
    escape: Optional["object"] = None  # EscapeAnalysis when a rule needs it
    summaries: Optional["object"] = None  # SummaryIndex when a rule needs it
    units: Dict[str, ModuleUnit] = field(default_factory=dict)  # by relpath


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]  # new (non-baselined, non-suppressed), sorted
    baselined: List[Finding]  # matched a baseline entry
    stale_baseline: List[BaselineEntry]  # baseline entries nothing matched
    files_checked: int = 0
    cache_mode: str = "off"  # "off" | "cold" | "partial" | "full"
    files_replayed: int = 0  # files whose findings came from the cache
    #: In ``--changed`` runs: the relpaths whose findings were kept
    #: (changed files plus their import-graph closure); None otherwise.
    lint_scope: Optional[set] = None
    #: Fixpoint statistics of the summary build (sccs, replayed,
    #: recomputed, fixpoint_s) when a selected rule needed summaries.
    summary_stats: Optional[dict] = None

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def exit_code(self, strict: bool = False) -> int:
        if self.errors or (strict and (self.findings or self.stale_baseline)):
            return 1
        return 0


def _parse_suppressions(lines: Sequence[str]) -> Dict[int, set]:
    table: Dict[int, set] = {}
    for i, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        toks = {t for t in m.group(1).replace(" ", "").split(",") if t}
        table[i] = {"all" if t.lower() == "all" else t.upper() for t in toks}
    return table


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def load_unit(path: Path, root: Path, source: Optional[str] = None) -> ModuleUnit:
    """Parse one file into a :class:`ModuleUnit`.

    Raises :class:`SyntaxError` when the file does not parse; the caller
    converts that into an ``R000`` finding.
    """
    if source is None:
        source = path.read_text(encoding="utf-8")
    relpath = _relpath(path, root)
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    return ModuleUnit(
        path=path,
        relpath=relpath,
        source=source,
        lines=lines,
        tree=tree,
        suppressions=_parse_suppressions(lines),
    )


def discover(paths: Iterable[Path]) -> List[Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out: set = set()
    for p in paths:
        p = Path(p)
        if p.is_file():
            out.add(p)
        elif p.is_dir():
            for f in p.rglob("*.py"):
                if "__pycache__" in f.parts:
                    continue
                if any(part.startswith(".") for part in f.parts[len(p.parts):]):
                    continue
                out.add(f)
        else:
            raise FileNotFoundError(f"lint target does not exist: {p}")
    return sorted(out)


def _read(path: Path) -> Tuple[Path, bytes, Optional[OSError]]:
    try:
        return (path, path.read_bytes(), None)
    except OSError as exc:  # surfaced as FileNotFoundError by parse_one
        return (path, b"", exc)


def run_lint(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
    cache_path: Optional[Path] = None,
    cache_write: bool = True,
    changed_scope: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint ``paths`` and reconcile findings against ``baseline``.

    ``cache_path`` attaches the incremental cache (:mod:`.cache`).
    ``cache_write=False`` replays from a warm cache but never persists
    the run — used by ``--changed``, whose partial view must not
    overwrite a whole-tree snapshot.

    ``changed_scope`` is the ``--changed`` contract: ``paths`` still
    name the *whole* tree (so the project graph and summaries see every
    module), and the scope — a set of changed relpaths — filters what
    is *reported*: file-scope findings only in changed files, project-
    scope findings in the changed files plus every module connected to
    them through the import graph.  That closes the v3 gap where graph
    rules were simply dropped and cross-file regressions rode in
    silently on an edit-loop lint.
    """
    from .cache import (
        LintCache,
        content_hash,
        decode_findings,
        encode_findings,
        engine_fingerprint,
        project_fingerprint,
    )

    root = Path(root) if root is not None else Path.cwd()
    rules = list(rules) if rules is not None else get_rules()
    need_graph = any(r.needs_graph for r in rules)
    file_rules = [r for r in rules if r.scope == "file"]
    project_rules = [r for r in rules if r.scope == "project"]

    files = discover(paths)
    reads = [_read(p) for p in files]
    rels = {path: _relpath(path, root) for path, _, _ in reads}
    hashes = {rels[path]: content_hash(data) for path, data, _ in reads}

    cache = LintCache.load(cache_path) if cache_path is not None else None
    fingerprint = engine_fingerprint([r.id for r in rules]) if cache else ""
    proj_fp = project_fingerprint(hashes) if cache else ""
    cache_usable = cache is not None and cache.loaded and (
        cache.fingerprint == fingerprint
    )

    # ------------------------------------------------------------------
    # fully-warm path: nothing changed anywhere -> replay, no parsing
    # (a --changed run always parses: the scope filter needs the graph)
    # ------------------------------------------------------------------
    if (
        changed_scope is None
        and cache_usable
        and cache.project_fp == proj_fp
        and set(cache.files) == set(hashes)
        and all(cache.files[r].get("hash") == h for r, h in hashes.items())
    ):
        raw: List[Finding] = []
        for entry in cache.files.values():
            raw.extend(decode_findings(entry.get("file_findings", [])))
            raw.extend(decode_findings(entry.get("project_findings", [])))
        return _finish(
            raw, baseline, len(files), cache_mode="full",
            files_replayed=len(files),
        )

    # ------------------------------------------------------------------
    # parse, build graph, dispatch rules
    # ------------------------------------------------------------------
    parse_errors: Dict[str, Finding] = {}

    def parse_one(item):
        path, data, err = item
        relpath = rels[path]
        if err is not None:
            raise FileNotFoundError(f"lint target does not exist: {path}")
        try:
            return load_unit(path, root, source=data.decode("utf-8"))
        except SyntaxError as exc:
            parse_errors[relpath] = Finding(
                rule=PARSE_RULE,
                severity=Severity.ERROR,
                path=relpath,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}",
            )
            return None

    # Serial on purpose: ast.parse holds the GIL (threads buy nothing),
    # and CPython 3.11's AST constructor keeps recursion-depth state
    # that concurrent parses corrupt ("AST constructor recursion depth
    # mismatch").
    units = [parse_one(item) for item in reads]
    units = [u for u in units if u is not None]

    ctx = LintContext(root=root, units={u.relpath: u for u in units})
    if need_graph:
        from .project import ProjectGraph

        ctx.project = ProjectGraph.build(units)
        if any(getattr(r, "needs_escape", False) for r in rules):
            from .escape import EscapeAnalysis

            ctx.escape = EscapeAnalysis.build(ctx.project)
        if any(getattr(r, "needs_summaries", False) for r in rules):
            from .summaries import SummaryIndex

            module_hashes = {
                syms.module: hashes[relpath]
                for relpath, syms in ctx.project.by_relpath.items()
                if relpath in hashes
            }
            ctx.summaries = SummaryIndex.build(
                ctx.project,
                module_hashes,
                cached=cache.summaries if cache_usable else None,
            )

    per_file: Dict[str, dict] = {
        relpath: {"hash": hashes[relpath], "file_findings": [], "project_findings": []}
        for relpath in hashes
    }
    for relpath, finding in parse_errors.items():
        per_file[relpath]["file_findings"].append(finding)

    files_replayed = 0
    for unit in units:
        if unit.skip_file:
            continue
        entry = (
            cache.file_entry(unit.relpath, hashes[unit.relpath])
            if cache_usable
            else None
        )
        if entry is not None:
            per_file[unit.relpath]["file_findings"] = decode_findings(
                entry.get("file_findings", [])
            )
            files_replayed += 1
        else:
            for rule in file_rules:
                if not rule.applies(unit.relpath):
                    continue
                for finding in rule.check(unit, ctx):
                    if not unit.is_suppressed(finding.rule, finding.line):
                        per_file[unit.relpath]["file_findings"].append(finding)

    for rule in project_rules:
        for finding in rule.check_project(ctx):
            unit = ctx.units.get(finding.path)
            if unit is not None and (
                unit.skip_file
                or unit.is_suppressed(finding.rule, finding.line)
            ):
                continue
            if finding.path in per_file:
                per_file[finding.path]["project_findings"].append(finding)

    lint_scope = None
    if changed_scope is not None:
        changed = set(changed_scope)
        lint_scope = changed | _affected_closure(ctx.project, changed)
        wide_ids = {r.id for r in rules if r.needs_graph} | {PARSE_RULE}
        for relpath, entry in per_file.items():
            if relpath not in changed:
                entry["file_findings"] = [
                    f for f in entry["file_findings"] if f.rule in wide_ids
                ] if relpath in lint_scope else []
            if relpath not in lint_scope:
                entry["project_findings"] = []
        if baseline is not None:
            # Entries for files outside the scope were never candidates
            # this run; dropping them keeps "stale" meaningful.
            baseline = Baseline([
                e for e in baseline.entries
                if e.path in changed
                or (e.path in lint_scope and e.rule in wide_ids)
            ])

    raw = []
    for entry in per_file.values():
        raw.extend(entry["file_findings"])
        raw.extend(entry["project_findings"])

    # A scoped run holds filtered findings — never a whole-tree snapshot.
    if cache is not None and cache_write and changed_scope is None:
        cache.save(
            fingerprint,
            proj_fp,
            {
                relpath: {
                    "hash": entry["hash"],
                    "file_findings": encode_findings(entry["file_findings"]),
                    "project_findings": encode_findings(
                        entry["project_findings"]
                    ),
                }
                for relpath, entry in per_file.items()
            },
            summaries=(
                ctx.summaries.scc_payload if ctx.summaries is not None else None
            ),
        )

    mode = "off" if cache is None else ("partial" if files_replayed else "cold")
    result = _finish(
        raw, baseline, len(files), cache_mode=mode, files_replayed=files_replayed
    )
    result.lint_scope = lint_scope
    if ctx.summaries is not None:
        result.summary_stats = dict(ctx.summaries.stats)
    return result


def _affected_closure(graph, changed_rels: set) -> set:
    """Relpaths whose project-scope findings an edit can move.

    Undirected reachability over the import graph from the changed
    modules: a changed callee shifts facts in its importers (reverse
    edges), and a changed caller can newly reach sinks in what it
    imports (forward edges).  Modules in neither closure cannot observe
    the edit through any graph rule, so their findings are stable and
    stay filtered.
    """
    if graph is None:
        return set(changed_rels)
    reverse: Dict[str, set] = {}
    for src, targets in graph.import_edges.items():
        for target in targets:
            reverse.setdefault(target, set()).add(src)
    mod_of = {rel: syms.module for rel, syms in graph.by_relpath.items()}
    frontier = [mod_of[rel] for rel in changed_rels if rel in mod_of]
    seen = set(frontier)
    while frontier:
        module = frontier.pop()
        for neighbour in (
            *graph.import_edges.get(module, ()),
            *reverse.get(module, ()),
        ):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return {
        rel for rel, syms in graph.by_relpath.items() if syms.module in seen
    }


def _finish(
    raw: List[Finding],
    baseline: Optional[Baseline],
    files_checked: int,
    cache_mode: str,
    files_replayed: int,
) -> LintResult:
    raw = sorted(raw, key=lambda f: f.sort_key)
    baseline = baseline or Baseline()
    new: List[Finding] = []
    matched: List[Finding] = []
    for finding in raw:
        if baseline.claim(finding):
            matched.append(replace(finding, baselined=True))
        else:
            new.append(finding)
    return LintResult(
        findings=new,
        baselined=matched,
        stale_baseline=baseline.unclaimed(),
        files_checked=files_checked,
        cache_mode=cache_mode,
        files_replayed=files_replayed,
    )
