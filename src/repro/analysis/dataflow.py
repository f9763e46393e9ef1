"""The naming-convention classifier R005 reads.

``classify_name`` / ``infer_dim`` give the dimension (dollars, hours,
seconds) an identifier declares by its words or suffix, so R005 can
tell a dollar-total equality from any other float comparison.  A fact
is either *confident* or absent: calls, products and ambiguous names
produce none.
"""

from __future__ import annotations

import ast
from typing import Optional

MONEY = "dollars"
HOURS = "hours"
SECONDS = "seconds"

_MONEY_WORDS = frozenset(
    {"usd", "dollar", "dollars", "cost", "costs", "price", "prices",
     "bill", "billed", "budget", "fee", "fees"}
)
_HOURS_WORDS = frozenset({"hours", "hour", "hrs", "hr"})
_SECONDS_WORDS = frozenset({"seconds", "secs", "sec"})


def classify_name(name: str) -> Optional[str]:
    """Dimension of an identifier, or None when ambiguous/neutral."""
    words = [w for w in name.lower().strip("_").split("_") if w]
    if not words:
        return None
    dims = set()
    if _MONEY_WORDS.intersection(words):
        dims.add(MONEY)
    if _HOURS_WORDS.intersection(words):
        dims.add(HOURS)
    # Bare trailing "_s" is the seconds suffix (``wall_s``); a word that
    # merely *ends* in s (``draws``, ``times``) is not.
    if _SECONDS_WORDS.intersection(words) or words[-1] == "s":
        dims.add(SECONDS)
    if len(dims) != 1:
        return None  # rates (``price_per_hour``) and neutral names
    return dims.pop()


def infer_dim(node: ast.AST) -> Optional[str]:
    """Dimension an expression declares through its names alone.

    Only name-shaped expressions are classified; calls and arithmetic
    products are unknown by design (multiplication/division is how unit
    conversions legitimately happen).
    """
    if isinstance(node, ast.Name):
        return classify_name(node.id)
    if isinstance(node, ast.Attribute):
        return classify_name(node.attr)
    if isinstance(node, ast.Subscript):
        return infer_dim(node.value)
    if isinstance(node, ast.Starred):
        return infer_dim(node.value)
    if isinstance(node, ast.UnaryOp):
        return infer_dim(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left, right = infer_dim(node.left), infer_dim(node.right)
        if left is not None and left == right:
            return left
        return None
    if isinstance(node, ast.IfExp):
        body, orelse = infer_dim(node.body), infer_dim(node.orelse)
        if body is not None and body == orelse:
            return body
        return None
    return None
