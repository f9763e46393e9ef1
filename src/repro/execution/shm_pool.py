"""Retired shared-memory trace transport: two no-op names remain.

``run_backtest(jobs=N)`` ships each window's plan/holdout slices to
its workers as ordinary pickled task arguments (DESIGN.md §12), so
nothing in the library uses shared memory.  The benchmark harness's
set-up (``sompibench/workloads.py``) still imports the two names below;
both are no-ops and go at the next benchmark change (ROADMAP item 5).
"""

__all__ = ["close_trace_pools", "shared_trace_handle"]


def shared_trace_handle(history) -> None:
    """No-op: backtest workers receive their window slices by pickle."""


def close_trace_pools() -> None:
    """No-op: there are no shared-memory segments to release."""
