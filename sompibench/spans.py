"""In-memory span recorder for the traced pass.

Spans are recorded from outside the library: :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that opens a span,
calls through and closes it.  Nothing under ``src/`` knows about it.

A span is ``(name, start, end, parent, request_id)``; ``parent`` is the
index of the enclosing span (``-1`` for a root).  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of the run.  Only
the process that installed the wrappers records: a forked pool worker
inherits the wrappers but calls straight through.
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        # One column per field: array columns hold no objects the cyclic
        # garbage collector must traverse, so tens of thousands of spans
        # do not slow the traced pass's collections.
        self.names: list = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.request_ids = array("q")
        self.counts: dict = defaultdict(int)
        self.request_id = -1
        self._stack: list = []
        self._patches: list = []
        self._pid = os.getpid()

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.request_ids.append(self.request_id)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installing wrappers -------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None, first_per_self=False):
        """Record a span around every call of ``owner.attr``.

        ``count(result)`` adds to ``counts[name]`` after each call made
        inside a request.
        ``first_per_self`` records only the first call per instance
        (the remaining calls still run, unrecorded).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        seen = weakref.WeakSet() if first_per_self else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            if seen is not None:
                if args[0] in seen:
                    return fn(*args, **kwargs)
                seen.add(args[0])
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None and tracer.request_id >= 0:
                tracer.counts[name] += count(out)
            return out

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def _rows(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.request_ids)

    def self_times(self, request_only: bool = False) -> dict:
        """Per-name self time (duration minus time covered by children)."""
        covered = [0.0] * len(self.names)
        for _name, t0, t1, parent, _rid in self._rows():
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = defaultdict(float)
        for i, (name, t0, t1, _parent, rid) in enumerate(self._rows()):
            if request_only and rid < 0:
                continue
            out[name] += (t1 - t0) - covered[i]
        return out

    def calls(self) -> dict:
        """Per-name span count, request spans only."""
        out: dict = defaultdict(int)
        for name, rid in zip(self.names, self.request_ids):
            if rid >= 0:
                out[name] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON row per line:
        ``[name, start, end, parent, request_id]``."""
        with open(path, "w") as fh:
            for row in self._rows():
                fh.write(json.dumps(row) + "\n")
