"""On-disk artifact store for planner and kernel tables (DESIGN.md §10).

The per-(trace, bid) launch/death index tables built by
:mod:`.kernels`, and the per-group bid/interval/outcome tables, survival
grids and search sidecar built by :mod:`repro.core.two_level`, are pure
functions of trace *content* plus a handful of scalar parameters.  This
module is the disk tier under those in-memory caches, so a cold process
warms from files instead of rebuilding:

* **Keying** — every artifact key is a SHA-256 over (a) the content
  hash of each participating trace, (b) every scalar parameter that
  enters the computation (floats canonicalised via ``float.hex()`` so
  the key is exact, never formatted), and (c) the **engine
  fingerprint**: a hash of the source files that produce artifact
  contents plus the numpy/python versions.  Editing any kernel or
  planner module, or changing numpy, silently invalidates every
  artifact — there are no version-skew rules to get wrong.
* **Container** — every kind is one file in one format: a fixed prefix
  (magic, ``ARTIFACT_VERSION``, header and payload lengths, a CRC-32 of
  everything after the prefix), a JSON header naming each column's
  dtype, shape and offset, then the raw column bytes at 64-byte
  aligned offsets.  A load is one ``readinto`` plus ``np.frombuffer``
  views into that buffer — no zip, no per-column header parse.
* **Layout** — ``v<ARTIFACT_VERSION>/<kind>/<aa>/<key>.art``, or, for a
  kind saved in *parts*, ``.../<aa>/<key>/<digest>.art`` with one file
  per part, named by the SHA-256 of its bytes (identical parts collapse
  into one file).  A parted load reads and returns every part of the
  key.  Writes are atomic: serialise to a temp file in the same
  directory, then ``os.replace``.  Readers never observe a half-written
  file.
* **Fail-open** — a missing artifact is a counted miss; a truncated,
  corrupted (checksum mismatch), foreign or unreadable one is a counted
  error whose file is unlinked.  Either way the caller rebuilds and
  results are bit-identical (the store persists the exact arrays the
  build produced).  Deleting the store directory mid-run only changes
  timing.

Hit/miss/write/error counts land in the :mod:`repro.obs` metrics
registry (``cache.artifact_*``), so ``--metrics`` output shows whether
a cold process actually hit warm disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..core.keys import hash_key
from ..core.two_level import register_cache_clearer
from ..errors import ConfigurationError

__all__ = [
    "ARTIFACT_SUFFIX",
    "ARTIFACT_VERSION",
    "ArtifactStore",
    "clear_store_handles",
    "default_artifact_dir",
    "engine_fingerprint",
    "get_store",
    "hash_key",
    "resolve_max_bytes",
]

#: Bump when the artifact layout or array schema changes; old versions
#: simply stop being read (their directory is ignored, not migrated).
ARTIFACT_VERSION = 2

#: File suffix of every artifact (and every part of a parted one).
ARTIFACT_SUFFIX = ".art"

#: Container prefix: magic, then version, header bytes, payload bytes
#: and the CRC-32 of everything after the prefix (header, padding and
#: payload).  Column offsets are relative to the payload, which starts
#: at the first ``_ALIGN`` boundary after the header.
_MAGIC = b"SOMPIART"
_PREFIX = struct.Struct("<IIQI")
_HEAD = len(_MAGIC) + _PREFIX.size
_ALIGN = 64

#: Environment override for the store location; an empty value disables
#: the store entirely (useful to pin hermetic test runs).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Size cap of the store in bytes.  When set, least-recently-used
#: artifacts are evicted until the store fits — on store open and
#: periodically as writes accumulate.  Unset or empty means "no limit"
#: (``repro artifacts --evict`` / ``--clear`` manage the store manually).
ARTIFACT_MAX_BYTES_ENV = "REPRO_ARTIFACT_MAX_BYTES"

#: Writes between periodic in-process eviction passes (when a size cap
#: is configured).  A full directory scan per write would dominate the
#: save cost; once per batch keeps the store near its cap without
#: showing up in profiles.
_EVICT_EVERY_WRITES = 64

_FINGERPRINT_MEMO: Dict[str, str] = {}
_STORE_MEMO: Dict[str, "ArtifactStore"] = {}

#: Source directories (relative to the ``repro`` package) whose code
#: produces artifact contents.  ``analysis``/``obs``/CLI edits must not
#: invalidate numeric artifacts, so they are deliberately absent.
_ENGINE_SOURCES = ("core", "market", "cloud", "execution")


def engine_fingerprint() -> str:
    """Hash of the numeric engine's own sources + numpy/python versions.

    Memoised for the process: the sources cannot change under a running
    interpreter in any way that matters to already-imported code.
    """
    if "fp" not in _FINGERPRINT_MEMO:
        import sys

        pkg = Path(__file__).resolve().parent.parent
        h = hashlib.sha256()
        h.update(f"py{sys.version_info[0]}.{sys.version_info[1]}".encode())
        h.update(f"np{np.__version__}".encode())
        for sub in _ENGINE_SOURCES:
            root = pkg / sub
            if not root.is_dir():
                continue
            for p in sorted(root.rglob("*.py")):
                if "__pycache__" in p.parts:
                    continue
                try:
                    data = p.read_bytes()
                except OSError:
                    # A source vanishing between the rglob and the read
                    # (editable install being rebuilt) must not crash
                    # planning: the resulting fingerprint simply differs,
                    # which costs a recompute, never correctness.
                    continue
                h.update(p.relative_to(pkg).as_posix().encode())
                h.update(b"\x00")
                h.update(data)
        _FINGERPRINT_MEMO["fp"] = h.hexdigest()
    return _FINGERPRINT_MEMO["fp"]


def default_artifact_dir() -> Optional[Path]:
    """Resolve the store root: env override, else the user cache dir.

    Returns ``None`` when the env var is set but empty (explicit
    opt-out).
    """
    env = os.environ.get(ARTIFACT_DIR_ENV)
    if env is not None:
        return Path(env) if env else None
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-sompi" / "artifacts"


def resolve_max_bytes() -> Optional[int]:
    """The store size cap from ``REPRO_ARTIFACT_MAX_BYTES``, or ``None``
    for unlimited (unset, empty or non-positive)."""
    env = os.environ.get(ARTIFACT_MAX_BYTES_ENV, "")
    if not env.strip():
        return None
    try:
        value = int(env)
    except ValueError:
        raise ConfigurationError(
            f"{ARTIFACT_MAX_BYTES_ENV} must be an integer byte count, "
            f"got {env!r}"
        ) from None
    return value if value > 0 else None


def _pad(n: int) -> int:
    """Bytes from ``n`` up to the next ``_ALIGN`` boundary."""
    return -n % _ALIGN


def _encode(arrays: Mapping[str, np.ndarray]) -> List[object]:
    """The container's bytes for ``arrays``, as buffers in file order.

    Object arrays are refused (the store never pickles).
    """
    columns = []
    body: List[object] = []
    offset = 0
    for name, arr in arrays.items():
        flat = np.ascontiguousarray(arr)
        if flat.dtype.hasobject:
            raise TypeError(f"artifact column {name!r} holds Python objects")
        if _pad(offset):
            body.append(bytes(_pad(offset)))
            offset += _pad(offset)
        columns.append((name, flat.dtype.str, flat.shape, offset))
        body.append(flat.reshape(-1).view(np.uint8))
        offset += flat.nbytes
    header = json.dumps(columns, separators=(",", ":")).encode()
    body[:0] = [header, bytes(_pad(_HEAD + len(header)))]
    crc = 0
    for chunk in body:
        crc = zlib.crc32(chunk, crc)
    prefix = _MAGIC + _PREFIX.pack(ARTIFACT_VERSION, len(header), offset, crc)
    return [prefix, *body]


def _decode(buf: bytearray) -> Dict[str, np.ndarray]:
    """Column views into ``buf``; ``ValueError`` on any damage
    (``TypeError`` for a header of the wrong shape).

    The checksum is verified before any column is touched, so a flipped
    byte anywhere after the prefix is an error, never a wrong table.
    """
    if len(buf) < _HEAD or buf[:len(_MAGIC)] != _MAGIC:
        raise ValueError("not an artifact container")
    version, header_len, payload_len, crc = _PREFIX.unpack_from(buf, len(_MAGIC))
    if version != ARTIFACT_VERSION:
        raise ValueError(f"artifact container version {version}")
    payload_at = _HEAD + header_len + _pad(_HEAD + header_len)
    if len(buf) != payload_at + payload_len:
        raise ValueError("truncated artifact")
    if zlib.crc32(memoryview(buf)[_HEAD:]) != crc:
        raise ValueError("artifact checksum mismatch")
    arrays = {}
    for name, dtype, shape, offset in json.loads(buf[_HEAD:_HEAD + header_len]):
        dt = np.dtype(dtype)
        count = math.prod(shape)
        if (dt.hasobject or count < 0 or offset < 0
                or offset + count * dt.itemsize > payload_len):
            raise ValueError(f"bad artifact column {name!r}")
        arrays[name] = np.frombuffer(
            buf, dtype=dt, count=count, offset=payload_at + offset
        ).reshape(shape)
    return arrays


def _read(path: Path) -> Dict[str, np.ndarray]:
    """One file's columns, read with a single ``readinto``."""
    with open(path, "rb") as fh:
        buf = bytearray(os.fstat(fh.fileno()).st_size)
        if fh.readinto(buf) != len(buf):
            raise ValueError("short read")
    return _decode(buf)


class ArtifactStore:
    """A directory of content-addressed artifact containers.

    ``max_bytes`` (set by :func:`get_store` from the environment)
    arms the LRU eviction policy: hits touch the artifact's mtime, and
    :meth:`evict` drops the least-recently-used files until the store
    fits.  Eviction runs when a store handle is first opened and every
    ``_EVICT_EVERY_WRITES`` saves; it only ever changes what is *cached*
    — a planned result is bit-identical whether its tables were evicted
    or not.
    """

    def __init__(self, root: Path, max_bytes: Optional[int] = None) -> None:
        self.root = Path(root) / f"v{ARTIFACT_VERSION}"
        self.max_bytes = max_bytes
        self._writes_since_evict = 0

    # ------------------------------------------------------------------
    def path_for(self, kind: str, key: str) -> Path:
        """Sharded path for one artifact (two-level fanout by key)."""
        return self.root / kind / key[:2] / f"{key}{ARTIFACT_SUFFIX}"

    def parts_dir(self, kind: str, key: str) -> Path:
        """Directory holding the parts of a parted artifact."""
        return self.root / kind / key[:2] / key

    def load(
        self, kind: str, key: str, *, parts: bool = False
    ) -> Optional[Dict[str, np.ndarray] | List[Dict[str, np.ndarray]]]:
        """The artifact's arrays, or ``None`` on any miss or damage.

        With ``parts=True`` the result is the list of every readable
        part saved under ``key`` (``None`` when there is none).  The
        lookup counts one hit or one miss however many parts it reads;
        each damaged part is a counted error, is unlinked, and is left
        out while the other parts are still returned.

        Fail-open end to end: a missing file is a counted miss, a
        truncated/corrupt/unreadable one is a counted error whose file
        is dropped so the rebuild repairs the store — the caller only
        ever sees ``None`` or good arrays.
        """
        metrics = obs.get_metrics()
        if parts:
            folder = self.parts_dir(kind, key)
            try:
                names = sorted(os.listdir(folder))
            except OSError:
                names = []
            paths = [folder / n for n in names if n.endswith(ARTIFACT_SUFFIX)]
        else:
            paths = [self.path_for(kind, key)]
        found = []
        damaged = False
        for path in paths:
            try:
                found.append(_read(path))
            except FileNotFoundError:
                continue
            except (OSError, ValueError, TypeError):
                # Truncated/corrupted/unreadable (``_decode`` raises
                # ValueError or TypeError on any damage): fail open,
                # count it, and drop the bad file so the rebuild
                # repairs the store.
                metrics.inc(f"cache.artifact_errors.{kind}")
                damaged = True
                try:
                    path.unlink()
                except OSError:
                    pass
                continue
            # Touch the file so "recently used" means recently *read*,
            # not just recently written — the LRU eviction sorts by mtime.
            try:
                os.utime(path)
            except OSError:
                pass
        if found:
            metrics.inc(f"cache.artifact_hits.{kind}")
            return found if parts else found[0]
        if not damaged:
            metrics.inc(f"cache.artifact_misses.{kind}")
        return None

    def save(
        self,
        kind: str,
        key: str,
        arrays: Mapping[str, np.ndarray],
        *,
        part: bool = False,
    ) -> bool:
        """Atomically persist ``arrays``; False (not an error) on failure.

        With ``part=True`` the arrays become one more part of ``key``,
        named by the hash of their bytes, beside the parts already there.

        A read-only or full filesystem degrades the store to always-cold
        exactly like the reprolint cache — planning results are computed
        either way.
        """
        metrics = obs.get_metrics()
        chunks = _encode(arrays)
        if part:
            digest = hashlib.sha256()
            for chunk in chunks:
                digest.update(chunk)
            path = self.parts_dir(kind, key) / (
                digest.hexdigest()[:32] + ARTIFACT_SUFFIX
            )
        else:
            path = self.path_for(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{path.stem[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.writelines(chunks)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            metrics.inc(f"cache.artifact_write_errors.{kind}")
            return False
        metrics.inc(f"cache.artifact_writes.{kind}")
        if self.max_bytes is not None:
            self._writes_since_evict += 1
            if self._writes_since_evict >= _EVICT_EVERY_WRITES:
                self._writes_since_evict = 0
                self.evict(max_bytes=self.max_bytes)
        return True

    # ------------------------------------------------------------------
    # Inspection and eviction (``repro artifacts`` CLI verb)
    # ------------------------------------------------------------------
    def _entries(
        self, root: Optional[Path] = None, pattern: str = f"*{ARTIFACT_SUFFIX}"
    ) -> List[Tuple[Path, os.stat_result]]:
        """Every file matching ``pattern`` under ``root`` (default: this
        version's directory) with its stat; fail-open per file."""
        root = self.root if root is None else root
        if not root.is_dir():
            return []
        entries = []
        for path in root.rglob(pattern):
            try:
                st = path.stat()
            except OSError:
                continue
            if stat.S_ISREG(st.st_mode):
                entries.append((path, st))
        return entries

    def _retired_roots(self) -> List[Path]:
        """Sibling ``v<n>/`` directories of older store versions (``n <
        ARTIFACT_VERSION``).  A newer version's directory belongs to a
        newer checkout sharing the store and is left alone."""
        base = self.root.parent
        if not base.is_dir():
            return []
        return sorted(
            path for path in base.iterdir()
            if path.name[:1] == "v" and path.name[1:].isdecimal()
            and int(path.name[1:]) < ARTIFACT_VERSION and path.is_dir()
        )

    def _retired_entries(self) -> List[Tuple[Path, os.stat_result]]:
        """Every file under an older version's ``v<n>/`` directory."""
        return [
            entry for root in self._retired_roots()
            for entry in self._entries(root, "*")
        ]

    def _drop_retired(self) -> Tuple[int, int]:
        """Remove every retired version, files and directories alike;
        ``(files, bytes)`` actually removed."""
        removed = 0
        freed = 0
        for path, st in self._retired_entries():
            if self._unlink_counted(path):
                removed += 1
                freed += st.st_size
        for root in self._retired_roots():
            self._prune_dirs(root)
            try:
                root.rmdir()
            except OSError:
                pass
        return removed, freed

    def stats(self) -> dict:
        """``{"files", "bytes", "by_kind": {kind: {"files", "bytes"}}}``.

        Files of retired (older) store versions count under the kind
        ``"(retired)"``: no current or newer version reads them, but
        they take space until :meth:`evict` or :meth:`clear` removes
        them.
        """
        by_kind: Dict[str, dict] = {}
        total_files = 0
        total_bytes = 0
        sized = []
        for path, st in self._entries():
            rel = path.relative_to(self.root).parts
            sized.append((rel[0] if len(rel) > 1 else "(unsorted)", st))
        sized += [("(retired)", st) for _path, st in self._retired_entries()]
        for kind, st in sized:
            entry = by_kind.setdefault(kind, {"files": 0, "bytes": 0})
            entry["files"] += 1
            entry["bytes"] += st.st_size
            total_files += 1
            total_bytes += st.st_size
        return {"files": total_files, "bytes": total_bytes, "by_kind": by_kind}

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_age_days: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Drop LRU artifacts until the store fits; ``(files, bytes)``.

        Retired (older) store versions go first, whole: no current or
        newer version reads them.
        ``max_bytes`` defaults to the configured cap
        (``REPRO_ARTIFACT_MAX_BYTES``); with neither a size nor an age
        bound the call is a no-op.  Age is measured against ``now`` (epoch seconds; defaults
        to the wall clock) minus each file's last-touch mtime.  Every
        unlink is fail-open: a file another process already removed or
        holds open just stops counting.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes if self.max_bytes else resolve_max_bytes()
        if max_bytes is None and max_age_days is None:
            return 0, 0
        removed, freed = self._drop_retired()
        # Oldest-touched first; path as tie-break so the order (and
        # therefore what a capped store keeps) is deterministic.
        entries = sorted(
            self._entries(), key=lambda e: (e[1].st_mtime, str(e[0]))
        )
        if max_age_days is not None:
            if now is None:
                import time

                # Store hygiene only: which cache files survive never
                # affects planned results (fail-open contract above).
                # reprolint: disable=R001 -- eviction age check is cache hygiene, not simulation state
                now = time.time()
            cutoff = now - max_age_days * 86400.0
            fresh = []
            for path, st in entries:
                if st.st_mtime < cutoff:
                    if self._unlink_counted(path):
                        removed += 1
                        freed += st.st_size
                else:
                    fresh.append((path, st))
            entries = fresh
        if max_bytes is not None:
            total = sum(st.st_size for _path, st in entries)
            for path, st in entries:
                if total <= max_bytes:
                    break
                if self._unlink_counted(path):
                    total -= st.st_size
                    removed += 1
                    freed += st.st_size
        if removed:
            obs.get_metrics().inc("cache.artifact_evictions", removed)
        return removed, freed

    def clear(self) -> Tuple[int, int]:
        """Remove every artifact; ``(files, bytes)`` actually removed.

        Every file under an older version's ``v<n>/`` directory goes
        too (and counts): no version reads a store it did not write, so
        nothing else would ever remove it.  A newer version's directory
        stays: it is the live store of a newer checkout.
        """
        removed, freed = self._drop_retired()
        for path, st in self._entries():
            if self._unlink_counted(path):
                removed += 1
                freed += st.st_size
        self._prune_dirs(self.root)
        return removed, freed

    @staticmethod
    def _prune_dirs(root: Path) -> None:
        """Remove the now-empty directories under ``root``, deepest
        first, best-effort."""
        if not root.is_dir():
            return
        dirs = [path for path in root.rglob("*") if path.is_dir()]
        for path in sorted(dirs, key=lambda p: len(p.parts), reverse=True):
            try:
                path.rmdir()
            except OSError:
                pass

    @staticmethod
    def _unlink_counted(path: Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True


def get_store(artifact_dir: Optional[str]) -> Optional[ArtifactStore]:
    """The store rooted at ``artifact_dir``, or ``None`` when disabled.

    ``artifact_dir`` is ``config.artifact_dir``; a falsy value resolves
    via :func:`default_artifact_dir`, which returns ``None`` — the disk
    tier's only off-switch — when ``REPRO_ARTIFACT_DIR`` is set empty.
    Store handles are memoised per resolved path;
    :func:`clear_store_handles` (wired into ``clear_shared_caches``)
    drops the handles — never the disk files — so a "cold process"
    simulation still hits warm disk.
    """
    root = Path(artifact_dir) if artifact_dir else default_artifact_dir()
    if root is None:
        return None
    key = str(root)
    store = _STORE_MEMO.get(key)
    if store is None:
        store = _STORE_MEMO[key] = ArtifactStore(
            root, max_bytes=resolve_max_bytes()
        )
        # Apply the size policy once per opened handle (so a store left
        # over the cap by an older process shrinks on next use), then
        # periodically as writes accumulate (see ``save``).
        if store.max_bytes is not None:
            store.evict(max_bytes=store.max_bytes)
    return store


# reprolint: disable=R002 -- registered right here with the shared clearer
def clear_store_handles() -> None:
    """Drop memoised store handles and the engine fingerprint.

    Disk artifacts stay untouched.  Clearing the fingerprint memo only
    costs a re-hash on the next lookup — sources cannot change under a
    running interpreter in any way that matters to imported code, so
    the recomputed value is identical.
    """
    _STORE_MEMO.clear()
    _FINGERPRINT_MEMO.clear()


register_cache_clearer(clear_store_handles)
