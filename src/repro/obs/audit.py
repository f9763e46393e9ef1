"""Conservation invariants over replay and adaptive results.

The headline numbers of the reproduction — replayed dollar totals —
are only as trustworthy as their bookkeeping, and bookkeeping drift is
exactly the kind of bug that survives review (everything still *runs*,
the totals are just quietly wrong).  Audit mode turns the books into
assertions: with :func:`repro.obs.audit_enabled` every
:class:`~repro.execution.results.RunResult` and
:class:`~repro.execution.adaptive.AdaptiveResult` is checked on the way
out, and any violation raises :class:`~repro.errors.AuditError` instead
of biasing a table.

Invariants checked (see DESIGN.md §7 for the full list):

* ``result.cost == result.ledger.total()`` to 1e-9 — no dollar enters
  the headline number without a ledger line, none leaves.
* The ``spot`` ledger category is exactly the per-group records' costs,
  line for line; only {spot, ondemand, storage} categories exist.
* The ``ondemand`` category reconciles with ``completed_by`` and the
  fallback fleet rate; spot completion implies zero on-demand dollars.
* Under single-shot semantics each record's spot cost reproduces from
  the trace and the billing policy (``billed_spot_cost``).
* Storage dollars reproduce from the checkpoint-write timeline
  (``checkpoint_storage_cost``), and are zero when accounting is off.
* Adaptive banked progress is monotone and contiguous across windows.

Audits run only when enabled, so the production path pays nothing.
"""

from __future__ import annotations

from typing import Optional

from ..cloud.billing import BillingPolicy, CONTINUOUS
from ..errors import AuditError

#: Conservation tolerance: dollars are sums of O(1)-magnitude products,
#: so anything past 1e-9 absolute is a logic error, not float noise.
TOLERANCE = 1e-9

_KNOWN_CATEGORIES = {"spot", "ondemand", "storage"}


def _fail(what: str, detail: str) -> None:
    raise AuditError(f"audit failed [{what}]: {detail}")


def _close(a: float, b: float, tol: float = TOLERANCE) -> bool:
    return abs(a - b) <= tol


def audit_run_result(
    problem,
    decision,
    result,
    history=None,
    billing: BillingPolicy = CONTINUOUS,
    semantics: str = "single-shot",
    account_storage: bool = False,
) -> None:
    """Assert every conservation invariant on one replayed result.

    ``history`` enables the deep re-derivation of per-record spot costs
    from the trace; without it only the ledger-internal invariants run.
    """
    ledger = result.ledger
    if not _close(result.cost, ledger.total()):
        _fail(
            "cost-conservation",
            f"cost={result.cost!r} != ledger.total()={ledger.total()!r} "
            f"(diff {result.cost - ledger.total():.3e})",
        )
    categories = set(ledger.by_category())
    if not categories <= _KNOWN_CATEGORIES:
        _fail(
            "ledger-categories",
            f"unknown categories {sorted(categories - _KNOWN_CATEGORIES)}",
        )

    records = list(result.group_records)
    spot_items = [item for item in ledger.items if item.category == "spot"]
    if len(spot_items) != len(records):
        _fail(
            "spot-lines",
            f"{len(spot_items)} spot ledger lines for {len(records)} records",
        )
    for item, rec in zip(spot_items, records):
        if item.dollars != rec.spot_cost:
            _fail(
                "spot-lines",
                f"ledger line {item.description!r} carries {item.dollars!r}, "
                f"record for {rec.key} cost {rec.spot_cost!r}",
            )

    ondemand = problem.ondemand_options[decision.ondemand_index]
    od_total = ledger.total("ondemand")
    if result.completed_by == "ondemand":
        expected = (
            ondemand.full_run_cost
            if not decision.groups
            else result.ondemand_hours * ondemand.fleet_rate
        )
        if not _close(od_total, expected):
            _fail(
                "ondemand-reconcile",
                f"ledger ondemand ${od_total!r} != billed "
                f"{result.ondemand_hours!r} h x ${ondemand.fleet_rate!r}/h",
            )
    elif result.completed_by is not None:
        if od_total != 0.0 or result.ondemand_hours != 0.0:
            _fail(
                "ondemand-reconcile",
                f"spot completion on {result.completed_by} but ledger shows "
                f"${od_total!r} on-demand over {result.ondemand_hours!r} h",
            )
        if not any(
            rec.completed and str(rec.key) == result.completed_by
            for rec in records
        ):
            _fail(
                "completion",
                f"completed_by={result.completed_by!r} has no completed record",
            )

    for gd, rec in zip(decision.groups, records):
        spec = problem.groups[gd.group_index]
        if rec.spot_cost < 0:
            _fail("record", f"{rec.key} negative spot cost {rec.spot_cost!r}")
        if rec.launched and rec.launch_time is None:
            _fail("record", f"{rec.key} launched without a launch time")
        if rec.launch_time is not None and rec.end_time < rec.launch_time - TOLERANCE:
            _fail(
                "record",
                f"{rec.key} ends at {rec.end_time!r} before launch "
                f"{rec.launch_time!r}",
            )
        if rec.saved > rec.productive + TOLERANCE:
            _fail(
                "record",
                f"{rec.key} saved {rec.saved!r} exceeds productive "
                f"{rec.productive!r}",
            )
        # Persistent groups relaunch after every death and recompute the
        # work lost since the last checkpoint, so their total productive
        # time legitimately exceeds the job's work; only single-shot
        # records are bounded by it.
        if semantics == "single-shot" and rec.productive > spec.exec_time + TOLERANCE:
            _fail(
                "record",
                f"{rec.key} productive {rec.productive!r} exceeds work "
                f"{spec.exec_time!r}",
            )

    if history is not None and semantics == "single-shot":
        _audit_spot_costs(problem, decision, records, history, billing)

    storage_total = ledger.total("storage")
    if not account_storage:
        if storage_total != 0.0:
            _fail("storage", f"accounting off but ledger shows ${storage_total!r}")
    else:
        from ..execution.replay import checkpoint_storage_cost

        run_end = result.start_time + result.makespan
        expected = checkpoint_storage_cost(
            problem, decision, records, run_end
        )
        if not _close(storage_total, expected):
            _fail(
                "storage",
                f"ledger ${storage_total!r} != checkpoint timeline "
                f"${expected!r} at run_end={run_end!r}",
            )


def _audit_spot_costs(problem, decision, records, history, billing) -> None:
    """Re-derive each single-shot record's bill from the trace."""
    from ..cloud.spot import billed_spot_cost

    for gd, rec in zip(decision.groups, records):
        spec = problem.groups[gd.group_index]
        if not rec.launched or rec.launch_time is None:
            if rec.spot_cost != 0.0:
                _fail(
                    "billing",
                    f"{rec.key} never launched but billed {rec.spot_cost!r}",
                )
            continue
        trace = history.get(spec.key)
        end = min(rec.end_time, trace.end_time)
        expected = (
            billed_spot_cost(trace, rec.launch_time, end, rec.terminated, billing)
            * spec.n_instances
            if end > rec.launch_time
            else 0.0
        )
        if not _close(expected, rec.spot_cost):
            _fail(
                "billing",
                f"{rec.key} billed {rec.spot_cost!r}, trace x policy gives "
                f"{expected!r} over [{rec.launch_time!r}, {end!r})",
            )


def audit_adaptive_result(result) -> None:
    """Assert ledger conservation and banked-progress monotonicity."""
    ledger = result.ledger
    if not _close(result.cost, ledger.total()):
        _fail(
            "adaptive-cost-conservation",
            f"cost={result.cost!r} != ledger.total()={ledger.total()!r} "
            f"(diff {result.cost - ledger.total():.3e})",
        )
    categories = set(ledger.by_category())
    if not categories <= _KNOWN_CATEGORIES:
        _fail(
            "ledger-categories",
            f"unknown categories {sorted(categories - _KNOWN_CATEGORIES)}",
        )
    prev_after: Optional[float] = None
    prev_index = -1
    for w in result.windows:
        if w.index <= prev_index:
            _fail("adaptive-windows", f"window indices not increasing at {w.index}")
        prev_index = w.index
        if w.t1 <= w.t0:
            _fail("adaptive-windows", f"window {w.index} empty [{w.t0}, {w.t1})")
        if not (0.0 <= w.fraction_before <= w.fraction_after <= 1.0 + TOLERANCE):
            _fail(
                "adaptive-progress",
                f"window {w.index} fractions not monotone in [0,1]: "
                f"{w.fraction_before!r} -> {w.fraction_after!r}",
            )
        if prev_after is not None and not _close(w.fraction_before, prev_after):
            _fail(
                "adaptive-progress",
                f"window {w.index} starts at {w.fraction_before!r} but the "
                f"previous window banked {prev_after!r}",
            )
        prev_after = w.fraction_after
        if w.cost < 0:
            _fail("adaptive-windows", f"window {w.index} negative cost {w.cost!r}")
