"""``repro.obs`` — observability and invariant auditing.

Three cooperating pieces (each in its own module):

* **Event tracing** (:mod:`.events`) — structured launch / death /
  checkpoint / fallback / window events into a ring buffer with an
  optional JSONL sink.  Off unless a trace is installed with
  :func:`tracing` / :func:`install_trace`.
* **Metrics** (:mod:`.metrics`) — a process-global registry of counters
  and wall-clock timers (replays run, combos evaluated, cache hits,
  per-phase planning time).  Always on; never feeds back into results.
* **Audit mode** (:mod:`.audit`) — conservation invariants asserted on
  every result: ``cost == ledger.total()`` to 1e-9, ledger categories
  reconciled against group records and the billing policy, monotone
  banked progress across adaptive windows.  Switched per process, never
  per config: with :func:`set_audit` / :func:`audited`, or with the
  ``REPRO_AUDIT=1`` environment variable (``make audit``), which also
  reaches worker processes.

With audit off and no trace installed the layer costs one attribute
check per replay, and outputs are bit-identical to the unobserved code
(held down by ``tests/test_perf_determinism.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterable, Optional

from .audit import (
    TOLERANCE,
    assert_event_parity,
    audit_adaptive_result,
    audit_run_result,
)
from .events import EVENT_KINDS, Event, EventTrace, derive_replay_events
from .metrics import Metrics

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventTrace",
    "Metrics",
    "TOLERANCE",
    "assert_event_parity",
    "audit_adaptive_result",
    "audit_enabled",
    "audit_run_result",
    "audited",
    "derive_replay_events",
    "emit",
    "emit_events",
    "get_metrics",
    "install_trace",
    "reset_metrics",
    "set_audit",
    "trace_active",
    "tracing",
]

# ---------------------------------------------------------------------------
# Process-global state.  Read at most once per replay; mutated only by the
# explicit switches below, so the off path is a couple of ``is None`` checks.
# ---------------------------------------------------------------------------

_METRICS = Metrics()
_TRACE: Optional[EventTrace] = None
_AUDIT = False
#: Environment opt-in, captured once at import (``make audit`` sets it
#: before the interpreter starts; forked workers inherit the parent's view).
_ENV_AUDIT = os.environ.get("REPRO_AUDIT", "") not in ("", "0")


def get_metrics() -> Metrics:
    """The process-global metrics registry."""
    return _METRICS


def reset_metrics() -> None:
    _METRICS.reset()


def audit_enabled() -> bool:
    """Whether results should be audited in this process."""
    return _AUDIT or _ENV_AUDIT


def set_audit(enabled: bool) -> None:
    global _AUDIT
    _AUDIT = bool(enabled)


@contextmanager
def audited(enabled: bool = True):
    """Temporarily switch audit mode (tests, targeted investigations)."""
    global _AUDIT
    before = _AUDIT
    _AUDIT = bool(enabled)
    try:
        yield
    finally:
        _AUDIT = before


def trace_active() -> bool:
    return _TRACE is not None


def install_trace(trace: Optional[EventTrace]) -> None:
    """Install (or with ``None``, remove) the process-global event sink."""
    global _TRACE
    _TRACE = trace


@contextmanager
def tracing(trace: Optional[EventTrace] = None):
    """Install an event trace for the duration of a block; yields it."""
    global _TRACE
    if trace is None:
        trace = EventTrace()
    before = _TRACE
    _TRACE = trace
    try:
        yield trace
    finally:
        _TRACE = before


def emit(kind: str, time: float, key: str = "", **data) -> None:
    """Emit one event to the installed trace (no-op without one)."""
    if _TRACE is not None:
        _TRACE.emit(kind, time, key, **data)


def emit_events(events: Iterable[Event]) -> None:
    """Append pre-built events to the installed trace (no-op without one)."""
    if _TRACE is not None:
        _TRACE.extend(events)
