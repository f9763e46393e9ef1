"""R005 — no bare float equality.

``==``/``!=`` against a float literal, or between two dollar-valued
expressions, is the signature of a tolerance bug: totals that are
*mathematically* equal drift apart in the last ulp as soon as a
summation order changes, which is exactly what the ledger audits exist
to catch with explicit tolerances.  Exact float comparison is only
legitimate when the value is a *sentinel* (``granularity_hours == 0.0``
means continuous billing) or a *parity assertion* (the audit layer's
"never launched ⇒ billed exactly $0"); those are suppressed inline or
grandfathered in the baseline with a documented reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..dataflow import MONEY, infer_dim
from ..findings import Finding
from ..registry import Rule, register


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


@register
class FloatEquality(Rule):
    id = "R005"
    title = "no ==/!= against float literals or between dollar totals"
    description = (
        "Flags ==/!= where an operand is a float literal, or where both "
        "operands are confidently dollar-dimensioned (cost totals). Use "
        "math.isclose or an explicit tolerance; exact sentinel checks "
        "and parity assertions must be suppressed inline or baselined "
        "with a documented reason."
    )

    def applies(self, relpath: str) -> bool:
        return "tests/" not in relpath and not relpath.startswith("tests")

    def check(self, unit, ctx) -> Iterator[Finding]:
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(lhs) or _is_float_literal(rhs):
                    yield self.finding(
                        unit, node.lineno, node.col_offset,
                        "exact ==/!= against a float literal; use a "
                        "tolerance, or document the exact sentinel and "
                        "suppress/baseline",
                    )
                elif (
                    infer_dim(lhs) == MONEY and infer_dim(rhs) == MONEY
                ):
                    yield self.finding(
                        unit, node.lineno, node.col_offset,
                        "exact ==/!= between dollar totals; summation-order "
                        "drift makes this flaky — compare with a tolerance",
                    )
