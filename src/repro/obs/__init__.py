"""``repro.obs`` — observability and invariant auditing.

Two pieces, each in its own module:

* **Metrics** (:mod:`.metrics`) — a process-global registry of counters
  and wall-clock timers (replays run, combos evaluated, cache hits,
  per-phase planning time).  Always on; never feeds back into results.
  Pool workers send theirs home as snapshots the parent folds in with
  :meth:`Metrics.merge_snapshot`.
* **Audit mode** (:mod:`.audit`) — conservation invariants asserted on
  every result: ``cost == ledger.total()`` to 1e-9, ledger categories
  reconciled against group records and the billing policy, monotone
  banked progress across adaptive windows.  Switched per process, never
  per config: with :func:`set_audit` / :func:`audited`, or with the
  ``REPRO_AUDIT=1`` environment variable (``make audit``), which also
  reaches worker processes.

With audit off the layer costs one flag check per replay, and outputs
are bit-identical to the unaudited code (held down by
``tests/test_perf_determinism.py``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from .audit import TOLERANCE, audit_adaptive_result, audit_run_result
from .metrics import Metrics

__all__ = [
    "Metrics",
    "TOLERANCE",
    "audit_adaptive_result",
    "audit_enabled",
    "audit_run_result",
    "audited",
    "get_metrics",
    "reset_metrics",
    "set_audit",
]

# ---------------------------------------------------------------------------
# Process-global state.  Read at most once per replay; mutated only by the
# explicit switches below, so the off path is a single flag check.
# ---------------------------------------------------------------------------

_METRICS = Metrics()
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
