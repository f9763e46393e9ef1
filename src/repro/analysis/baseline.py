"""Grandfathered-findings baseline.

The baseline is a checked-in JSON file listing findings the project has
*deliberately* decided to keep — here, documented exact float
comparisons that R005 would otherwise reject.  Each entry must carry a
non-empty ``reason``; the reason is the tracking comment the ISSUE
workflow requires, reviewed like code.

Matching is content-based, not line-based: an entry claims a finding
when ``(rule, path, stripped source line)`` agree, with multiset
semantics — two identical comparisons on one line need two entries.
Line numbers in the file are informational only, so unrelated edits
that shift code never invalidate the baseline, while *changing* the
grandfathered line (or its file) surfaces the finding again.

Stale entries (nothing matched them this run) are reported and fail the
run under ``--strict``, which ``make lint`` passes: the file is edited
by hand, and it only ever shrinks as violations are fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from .findings import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "reprolint_baseline.json"


@dataclass
class BaselineEntry:
    """One grandfathered finding."""

    rule: str
    path: str
    code: str  # stripped source line
    reason: str
    line: int = 0  # informational

    @property
    def key(self) -> tuple:
        return (self.rule, self.path, self.code)

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "reason": self.reason,
        }


class Baseline:
    """Multiset of grandfathered findings with claim tracking."""

    def __init__(self, entries: Optional[List[BaselineEntry]] = None) -> None:
        self.entries = list(entries or [])
        self._available: Dict[tuple, List[BaselineEntry]] = {}
        for entry in self.entries:
            self._available.setdefault(entry.key, []).append(entry)

    def claim(self, finding: Finding) -> bool:
        """Consume one matching entry for ``finding`` if available."""
        bucket = self._available.get((finding.rule, finding.path, finding.code))
        if bucket:
            bucket.pop()
            return True
        return False

    def unclaimed(self) -> List[BaselineEntry]:
        """Entries no finding matched (stale: the violation is gone)."""
        return [e for bucket in self._available.values() for e in bucket]

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"baseline {path} is not valid JSON: {exc}")
        if data.get("version") != BASELINE_VERSION:
            raise ConfigurationError(
                f"baseline {path} has version {data.get('version')!r}, "
                f"expected {BASELINE_VERSION}"
            )
        entries = []
        for raw in data.get("entries", []):
            missing = {"rule", "path", "code", "reason"} - set(raw)
            if missing:
                raise ConfigurationError(
                    f"baseline entry {raw!r} missing fields {sorted(missing)}"
                )
            if not str(raw["reason"]).strip():
                raise ConfigurationError(
                    f"baseline entry for {raw['path']} ({raw['rule']}) has an "
                    "empty reason; every grandfathered finding must be justified"
                )
            entries.append(
                BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    code=raw["code"],
                    reason=raw["reason"],
                    line=int(raw.get("line", 0)),
                )
            )
        return cls(entries)
