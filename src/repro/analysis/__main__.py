"""Command-line entry: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (modulo baseline), 1 findings (error severity, or
anything under ``--strict``), 2 usage error.

Beyond plain linting the CLI drives the v2 engine features:

* ``--cache [PATH]`` — content-hash incremental cache; a warm run with
  nothing changed replays every finding without parsing a file.
* ``--fix`` / ``--fix-suppress`` — apply mechanically-safe autofixes
  (suffix renames, zero-guard rewrites), optionally scaffolding inline
  suppressions for what remains; idempotence is enforced by re-linting
  the rewritten tree (:mod:`.fixers`).
* ``--sarif PATH`` / ``--format sarif`` — SARIF 2.1.0 output for CI
  inline annotations.
* ``--prune-baseline`` — drop stale baseline entries so the file only
  ever shrinks as violations are fixed.
* ``--changed [BASE]`` — git-aware edit-loop mode: report findings for
  the files that differ from ``BASE`` (default ``HEAD``) plus untracked
  files.  The *whole* tree is still analysed — the project graph and
  the summary fixpoint see every module, so interprocedural rules stay
  sound — and the scope only filters reporting: file-scope findings in
  the changed files, project-scope findings in the changed files plus
  every module connected to them through the import graph (an edit to a
  callee re-reports the drift it causes in its callers).  The warm
  cache replays unchanged work (including per-SCC summaries), but the
  run never writes the cache — a scoped result set must not overwrite
  the whole-tree snapshot.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from ..errors import ConfigurationError
from .baseline import Baseline, DEFAULT_BASELINE_NAME
from .cache import DEFAULT_CACHE_NAME
from .engine import run_lint
from .registry import get_rules
from .reporters import report_json, report_rules, report_sarif, report_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: AST-based invariant linter (DESIGN.md §9)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="project root for relative paths and the baseline "
        "(default: current directory)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--sarif", type=Path, default=None, metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME} "
        "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit "
        "(reasons default to TODO markers that must be edited)",
    )
    parser.add_argument(
        "--prune-baseline", action="store_true",
        help="drop baseline entries nothing matched this run and "
        "rewrite the file (the baseline shrinks, never grows)",
    )
    parser.add_argument(
        "--cache", nargs="?", type=Path, const=Path(DEFAULT_CACHE_NAME),
        default=None, metavar="PATH",
        help="use the incremental lint cache "
        f"(default path: <root>/{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="file-read thread-pool size (default: cpu count, max 8)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply mechanically-safe autofixes (suffix renames, "
        "zero-guard rewrites) before reporting; re-lints until stable",
    )
    parser.add_argument(
        "--fix-suppress", action="store_true",
        help="with --fix semantics, additionally scaffold inline "
        "suppression comments (with TODO reasons) for findings no "
        "autofix can handle",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="BASE",
        help="report findings only for files changed vs. the git ref "
        "BASE (default HEAD) plus untracked files and, for project "
        "rules, their import-graph neighbourhood; the whole tree is "
        "still analysed, and the warm cache is read but never written",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings and stale baseline entries also fail the run",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print baselined findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe the registered rules and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout

    try:
        rules = get_rules(args.select.split(",") if args.select else None)
    except KeyError as exc:
        print(f"reprolint: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.list_rules:
        report_rules(rules, out)
        return 0

    root = (args.root or Path.cwd()).resolve()
    baseline_path = args.baseline or (root / DEFAULT_BASELINE_NAME)

    def load_baseline():
        """Fresh Baseline per lint pass (claiming is stateful)."""
        if args.no_baseline or args.write_baseline:
            return None
        if baseline_path.is_file():
            return Baseline.load(baseline_path)
        if args.baseline is not None:
            raise ConfigurationError(f"baseline {baseline_path} not found")
        return None

    try:
        load_baseline()  # surface config errors before any work
    except ConfigurationError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths]
    cache_path = None
    if args.cache is not None:
        cache_path = (
            args.cache if args.cache.is_absolute() else root / args.cache
        )

    cache_write = True
    changed_scope = None
    fix_targets = paths
    if args.changed is not None:
        try:
            changed = _changed_files(root, args.changed)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"reprolint: --changed needs git: {exc}", file=sys.stderr)
            return 2
        # The whole tree is still analysed (graph + summaries need every
        # module); the scope only filters what gets *reported*.  The
        # run's partial result set must never be persisted as if it
        # were a whole-tree snapshot — replay from the cache, don't
        # write it.
        in_scope = _restrict_to(changed, paths, root)
        changed_scope = set()
        for p in in_scope:
            try:
                changed_scope.add(p.resolve().relative_to(root).as_posix())
            except ValueError:
                changed_scope.add(p.as_posix())
        if not changed_scope:
            print(
                f"reprolint: no python files changed vs. {args.changed}; "
                "nothing to report",
                file=out,
            )
            return 0
        fix_targets = in_scope
        cache_write = False

    try:
        if args.fix or args.fix_suppress:
            from .fixers import fix_paths

            fix_report = fix_paths(
                fix_targets, root=root, rules=rules,
                baseline_factory=load_baseline,
                suppress=args.fix_suppress,
            )
            for edit in fix_report.applied:
                print(
                    f"fixed {edit.path}:{edit.line}: [{edit.op}] {edit.detail}",
                    file=out,
                )
            for edit in fix_report.refused:
                print(
                    f"skipped {edit.path}:{edit.line}: [{edit.op}] "
                    f"{edit.detail}",
                    file=out,
                )
            print(
                f"reprolint --fix: {len(fix_report.applied)} fix(es) in "
                f"{len(fix_report.files_changed)} file(s) over "
                f"{fix_report.passes} pass(es); "
                f"{fix_report.remaining} finding(s) remain",
                file=out,
            )

        baseline = load_baseline()
        result = run_lint(
            paths,
            root=root,
            rules=rules,
            baseline=baseline,
            cache_path=cache_path,
            jobs=args.jobs,
            cache_write=cache_write,
            changed_scope=changed_scope,
        )
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.dump(result.findings, baseline_path)
        print(
            f"reprolint: wrote {len(result.findings)} entr(y/ies) to "
            f"{baseline_path}; fill in the reasons before committing",
            file=out,
        )
        return 0

    if args.prune_baseline:
        stale = len(result.stale_baseline)
        if stale:
            Baseline.dump_entries(
                _kept_entries(baseline_path, result), baseline_path
            )
            print(
                f"reprolint: pruned {stale} stale entr(y/ies) from "
                f"{baseline_path}",
                file=out,
            )
        else:
            print(
                f"reprolint: no stale entries in {baseline_path}", file=out
            )

    if args.sarif is not None:
        sarif_path = (
            args.sarif if args.sarif.is_absolute() else root / args.sarif
        )
        with open(sarif_path, "w", encoding="utf-8") as fh:
            report_sarif(result, rules, fh, root=root)

    if args.format == "json":
        report_json(result, out)
    elif args.format == "sarif":
        report_sarif(result, rules, out, root=root)
    else:
        report_text(result, out, verbose=args.verbose)
    return result.exit_code(strict=args.strict)


def _changed_files(root: Path, base: str) -> list[Path]:
    """Absolute paths of ``*.py`` files changed vs. ``base`` + untracked.

    ``--diff-filter=ACMR`` keeps added/copied/modified/renamed files and
    drops deletions (nothing left to lint); untracked files come from
    ``ls-files --others`` so a brand-new module is linted before its
    first ``git add``.  Paths come back relative to the repo toplevel,
    which may sit above ``root``.
    """

    def git(*argv: str) -> list[str]:
        proc = subprocess.run(
            ["git", "-C", str(root), *argv],
            capture_output=True, text=True, check=True,
        )
        return [line for line in proc.stdout.splitlines() if line.strip()]

    top = Path(git("rev-parse", "--show-toplevel")[0])
    rels = set(
        git("diff", "--name-only", "--diff-filter=ACMR", base, "--", "*.py")
    )
    rels |= set(
        git("ls-files", "--others", "--exclude-standard", "--", "*.py")
    )
    return sorted(top / rel for rel in rels if (top / rel).is_file())


def _restrict_to(
    changed: list[Path], requested: list[Path], root: Path
) -> list[Path]:
    """Changed files that fall under one of the requested lint paths."""
    bases = [
        (p if p.is_absolute() else root / p).resolve() for p in requested
    ]
    out = []
    for path in changed:
        resolved = path.resolve()
        for base in bases:
            if resolved == base or base in resolved.parents:
                out.append(path)
                break
    return out


def _kept_entries(baseline_path: Path, result):
    """Baseline entries that were claimed this run, in file order."""
    baseline = Baseline.load(baseline_path)
    stale_keys = {}
    for entry in result.stale_baseline:
        stale_keys[entry.key] = stale_keys.get(entry.key, 0) + 1
    kept = []
    for entry in reversed(baseline.entries):
        if stale_keys.get(entry.key, 0) > 0:
            stale_keys[entry.key] -= 1
        else:
            kept.append(entry)
    kept.reverse()
    return kept


if __name__ == "__main__":
    sys.exit(main())
