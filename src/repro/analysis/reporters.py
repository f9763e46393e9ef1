"""Text, JSON and SARIF reporters for lint results."""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Optional, Sequence

from .engine import LintResult
from .findings import Finding
from .registry import Rule

SARIF_VERSION = "2.1.0"
#: Every rule is documented in DESIGN.md §9; descriptors link there.
_DOCS_URI = "DESIGN.md#9-static-invariants-reproanalysis--reprolint"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def report_text(result: LintResult, out: IO[str], verbose: bool = False) -> None:
    """Human-oriented report: one ``path:line:col`` row per finding."""
    for finding in result.findings:
        print(finding.format(), file=out)
    if verbose:
        for finding in result.baselined:
            print(finding.format(), file=out)
    for entry in result.stale_baseline:
        print(
            f"{entry.path}: stale baseline entry for {entry.rule} "
            f"({entry.code!r}) — the finding is gone; remove the entry",
            file=out,
        )
    n_err = len(result.errors)
    n_warn = len(result.findings) - n_err
    print(
        f"reprolint: {result.files_checked} files, "
        f"{n_err} error(s), {n_warn} warning(s), "
        f"{len(result.baselined)} baselined, "
        f"{len(result.stale_baseline)} stale baseline entr(y/ies)",
        file=out,
    )
    stats = result.summary_stats
    if stats:
        print(
            f"reprolint: summaries: {stats.get('functions', 0)} "
            f"function(s) in {stats.get('sccs', 0)} SCC(s), "
            f"{stats.get('replayed', 0)} replayed from cache, "
            f"{stats.get('recomputed', 0)} recomputed "
            f"({stats.get('fixpoint_s', 0.0):.3f}s fixpoint)",
            file=out,
        )


def report_json(result: LintResult, out: IO[str]) -> None:
    """Machine-oriented report (stable shape for CI tooling)."""
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.to_json() for f in result.findings],
        "baselined": [f.to_json() for f in result.baselined],
        "stale_baseline": [e.to_json() for e in result.stale_baseline],
        "summary": {
            "errors": len(result.errors),
            "warnings": len(result.findings) - len(result.errors),
            "baselined": len(result.baselined),
            "stale": len(result.stale_baseline),
        },
    }
    if result.summary_stats:
        payload["summaries"] = result.summary_stats
    json.dump(payload, out, indent=2)
    out.write("\n")


def _sarif_result(finding: Finding, rule_index: dict) -> dict:
    out = {
        "ruleId": finding.rule,
        "level": finding.severity.value,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; ast's are 0-based.
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }
    if finding.rule in rule_index:
        out["ruleIndex"] = rule_index[finding.rule]
    if finding.code:
        out["partialFingerprints"] = {
            # Mirrors the baseline's content key: stable across edits
            # that merely shift line numbers.
            "reprolint/v1": f"{finding.rule}:{finding.path}:{finding.code}"
        }
    if finding.baselined:
        out["suppressions"] = [
            {"kind": "external", "justification": "reprolint baseline"}
        ]
    return out


def report_sarif(
    result: LintResult,
    rules: Sequence[Rule],
    out: IO[str],
    root: Optional[Path] = None,
) -> None:
    """SARIF 2.1.0 report so CI annotates findings inline on PRs.

    New findings map to plain results; baselined findings are included
    as *suppressed* results (``suppressions[].kind = "external"``) so
    SARIF viewers show them greyed out instead of re-opening them.
    """
    rule_ids = sorted({r.id for r in rules} | {f.rule for f in result.findings})
    by_id = {r.id: r for r in rules}
    descriptors = []
    for rid in rule_ids:
        rule = by_id.get(rid)
        descriptors.append({
            "id": rid,
            "name": type(rule).__name__ if rule else rid,
            "shortDescription": {"text": rule.title if rule else rid},
            "fullDescription": {"text": rule.description if rule else ""},
            "helpUri": _DOCS_URI,
            "defaultConfiguration": {
                "level": rule.severity.value if rule else "error"
            },
        })
    rule_index = {rid: i for i, rid in enumerate(rule_ids)}

    run: dict = {
        "tool": {
            "driver": {
                "name": "reprolint",
                "informationUri": _DOCS_URI,
                "rules": descriptors,
            }
        },
        "results": [
            _sarif_result(f, rule_index)
            for f in (*result.findings, *result.baselined)
        ],
        "columnKind": "utf16CodeUnits",
    }
    if root is not None:
        run["originalUriBaseIds"] = {
            "SRCROOT": {"uri": Path(root).resolve().as_uri() + "/"}
        }
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }
    json.dump(payload, out, indent=2)
    out.write("\n")


def report_rules(rules: list[Rule], out: IO[str]) -> None:
    """``--list-rules``: id, severity, title, description."""
    for rule in rules:
        print(f"{rule.id} [{rule.severity.value}] {rule.title}", file=out)
        for line in rule.description.strip().splitlines():
            print(f"    {line.strip()}", file=out)
