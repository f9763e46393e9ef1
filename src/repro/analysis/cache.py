"""Content-hash incremental cache for lint runs.

``make lint`` re-runs on every edit loop, so the engine caches findings
keyed by *content*, never by mtime:

* **file-scope findings** (``scope = "file"`` rules) replay whenever
  that one file's hash is unchanged;
* **project-scope findings** (``scope = "project"`` rules) replay
  only when the *whole* fingerprint — every linted file's hash —
  is unchanged.  Any edit anywhere re-runs them all, which is the sound
  choice: a one-line signature change can move findings in any file.

The cache additionally keys on an **engine fingerprint**: a hash of the
``repro.analysis`` package's own sources and the selected rule ids, so
editing the linter (or linting with ``--select``) can never replay
findings computed by different code.  A fully warm run therefore does
no parsing and no rule work at all — it reads, hashes, and replays.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .findings import Finding

CACHE_VERSION = 5
DEFAULT_CACHE_NAME = ".reprolint_cache.json"

#: Analysis phases folded into the engine fingerprint, so adding or
#: dropping a phase bumps the fingerprint even if no package source
#: happened to change on disk.
ANALYSIS_PHASES = ("symbols", "graph", "summaries")

_fingerprint_memo: Dict[tuple, str] = {}


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def engine_fingerprint(rule_ids: Sequence[str]) -> str:
    """Hash of the linter's own sources plus the selected rule ids."""
    key = tuple(sorted(rule_ids))
    if key not in _fingerprint_memo:
        pkg = Path(__file__).resolve().parent
        h = hashlib.sha256()
        for p in sorted(pkg.rglob("*.py")):
            if "__pycache__" in p.parts:
                continue
            h.update(p.relative_to(pkg).as_posix().encode())
            h.update(b"\x00")
            h.update(p.read_bytes())
        h.update(("\x00".join(key)).encode())
        h.update(("\x00".join(ANALYSIS_PHASES)).encode())
        _fingerprint_memo[key] = h.hexdigest()
    return _fingerprint_memo[key]


def project_fingerprint(file_hashes: Dict[str, str]) -> str:
    h = hashlib.sha256()
    for relpath in sorted(file_hashes):
        h.update(relpath.encode())
        h.update(b"\x00")
        h.update(file_hashes[relpath].encode())
        h.update(b"\x00")
    return h.hexdigest()


class LintCache:
    """On-disk findings cache; see the module docstring for keying."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.fingerprint: str = ""
        self.project_fp: str = ""
        self.files: Dict[str, dict] = {}
        #: Third tier: SCC content key → serialized function summaries
        #: (:mod:`.summaries`).  Keys hash member sources plus callee
        #: SCC keys, so an edit re-summarizes only the SCCs that can
        #: observe it.
        self.summaries: Dict[str, list] = {}
        self.loaded = False

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: Path) -> "LintCache":
        """Fail-open: an unreadable, corrupt or version-skewed cache
        file degrades to an always-cold run, never an error."""
        cache = cls(path)
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return cache
        if doc.get("version") != CACHE_VERSION:
            return cache
        cache.fingerprint = doc.get("fingerprint", "")
        cache.project_fp = doc.get("project_fingerprint", "")
        cache.files = dict(doc.get("files", {}))
        cache.summaries = dict(doc.get("summaries", {}))
        cache.loaded = True
        return cache

    def save(
        self,
        fingerprint: str,
        project_fp: str,
        files: Dict[str, dict],
        summaries: Optional[Dict[str, list]] = None,
    ) -> None:
        """Fail-open: a read-only tree degrades to always-cold."""
        doc = {
            "version": CACHE_VERSION,
            "fingerprint": fingerprint,
            "project_fingerprint": project_fp,
            "files": files,
            "summaries": summaries if summaries is not None else {},
        }
        try:
            self.path.write_text(
                json.dumps(doc, indent=1, sort_keys=True) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass  # a read-only tree degrades to always-cold, not an error

    # ------------------------------------------------------------------
    def file_entry(self, relpath: str, file_hash: str) -> Optional[dict]:
        entry = self.files.get(relpath)
        if entry and entry.get("hash") == file_hash:
            return entry
        return None


def encode_findings(findings: List[Finding]) -> List[dict]:
    return [f.to_json() for f in findings]


def decode_findings(raw: List[dict]) -> List[Finding]:
    return [Finding.from_json(d) for d in raw]
