"""Command-line entry: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean (modulo baseline), 1 findings (error severity, or
anything under ``--strict``), 2 usage error.

Beyond plain linting the CLI drives two engine features:

* ``--cache [PATH]`` — content-hash incremental cache; a warm run with
  nothing changed replays every finding without parsing a file.
* ``--sarif PATH`` / ``--format sarif`` — SARIF 2.1.0 output for CI
  inline annotations.
"""

from __future__ import annotations

import argparse
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
        "--cache", nargs="?", type=Path, const=Path(DEFAULT_CACHE_NAME),
        default=None, metavar="PATH",
        help="use the incremental lint cache "
        f"(default path: <root>/{DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule ids to run (default: all)",
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

    baseline = None
    if not args.no_baseline:
        try:
            if baseline_path.is_file():
                baseline = Baseline.load(baseline_path)
            elif args.baseline is not None:
                raise ConfigurationError(f"baseline {baseline_path} not found")
        except ConfigurationError as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2

    paths = [Path(p) for p in args.paths]
    cache_path = None
    if args.cache is not None:
        cache_path = (
            args.cache if args.cache.is_absolute() else root / args.cache
        )

    try:
        result = run_lint(
            paths,
            root=root,
            rules=rules,
            baseline=baseline,
            cache_path=cache_path,
        )
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

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


if __name__ == "__main__":
    sys.exit(main())
