"""R015 — float reductions must not fold nondeterministically ordered iterables.

Float addition is not associative: ``sum`` over the same multiset of
floats in two different orders can differ in the last ulps, which is
exactly the class of drift the repo's bit-identity contracts
(DESIGN.md §6, §12) are built to exclude.  The order of a Python
``set`` depends on hash randomization and insertion history, and
filesystem enumeration (``os.listdir``, ``glob``, ``Path.iterdir``)
is whatever the OS returns — so a reduction folding either is a
different float from run to run while every serial test passes.

Flagged reductions: ``sum``/``np.sum``, ``functools.reduce`` and
``itertools.accumulate`` whose iterable operand is provably

* a set — literal, comprehension, ``set(...)``/``frozenset(...)``;
* a filesystem enumeration — ``os.listdir``/``scandir``,
  ``glob.glob``/``iglob``, ``Path.glob``/``rglob``/``iterdir``;
* a dict view (``.values()``/``.keys()``/``.items()``) of a *provably
  dict* receiver — insertion-ordered, so the fold silently couples the
  result to whatever order the dict happened to be built in;

either written inline or reached through a one-hop local binding
(``names = set(...); total = sum(names)``).  Wrapping the iterable in
``sorted(...)`` pins the order and clears the fact; ``list(...)`` does
not (it freezes the *current* nondeterministic order).

``math.fsum`` is deliberately exempt: it returns the correctly-rounded
sum of the inputs, which is order-independent — wrapping its argument
in ``sorted`` would be noise.  Everything here is confident-or-absent:
an iterable the rule cannot prove nondeterministic produces no finding.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..findings import Finding
from ..registry import Rule, in_benchmarks, in_packages, register
from ..symbols import leaf_name, own_exprs, walk_expr_shallow

#: Packages under the bit-identity contract for accumulated floats.
ORDERED_PACKAGES = ("core", "execution", "market", "backtest")

#: Reduction leaf → index of the iterable argument.
_REDUCER_ARG = {"sum": 0, "accumulate": 0, "reduce": 1}

#: Call leaves returning set-typed values.
_SET_LEAVES = frozenset({"set", "frozenset"})

#: Call leaves enumerating the filesystem in OS order.
_FS_LEAVES = frozenset(
    {"listdir", "scandir", "glob", "iglob", "rglob", "iterdir"}
)

#: Dict-view leaves (nondeterministic only on provably-dict receivers).
_VIEW_LEAVES = frozenset({"values", "keys", "items"})


class _ScopeScan:
    """One lexical scope: tracks nondet bindings, collects findings."""

    def __init__(self, rule: "OrderedReduction", unit) -> None:
        self.rule = rule
        self.unit = unit
        #: local name → why its value iterates nondeterministically
        self.nondet: Dict[str, str] = {}
        #: local names provably bound to a dict
        self.dictlike: Set[str] = set()
        self.findings: List[Finding] = []

    # ------------------------------------------------------------ facts
    def _reason(self, node: ast.expr) -> Optional[str]:
        """Why ``node`` iterates in nondeterministic order, or None."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set (iteration order is hash- and history-dependent)"
        if isinstance(node, ast.Name):
            return self.nondet.get(node.id)
        if not isinstance(node, ast.Call):
            return None
        leaf = leaf_name(node.func)
        if leaf in _SET_LEAVES:
            return (
                f"{leaf}(...) (iteration order is hash- and "
                "history-dependent)"
            )
        if leaf in _FS_LEAVES:
            return f"{leaf}(...) (filesystem enumeration order is OS-defined)"
        if leaf in ("list", "tuple") and node.args:
            # list()/tuple() freeze the *current* nondeterministic order
            # — the fact survives; sorted() is the only launderer.
            return self._reason(node.args[0])
        if leaf in _VIEW_LEAVES and isinstance(node.func, ast.Attribute):
            recv = node.func.value
            if isinstance(recv, ast.Dict) or (
                isinstance(recv, ast.Name) and recv.id in self.dictlike
            ):
                return (
                    f".{leaf}() of a dict (the fold silently depends on "
                    "insertion order)"
                )
        return None

    # ----------------------------------------------------------- checks
    def _check_call(self, call: ast.Call) -> None:
        leaf = leaf_name(call.func)
        arg_idx = _REDUCER_ARG.get(leaf)
        if arg_idx is None or len(call.args) <= arg_idx:
            return
        iterable = call.args[arg_idx]
        if isinstance(iterable, ast.Starred):
            return
        why = self._reason(iterable)
        if why is None:
            return
        self.findings.append(self.rule.finding(
            self.unit, call.lineno, call.col_offset,
            f"{leaf}() folds {why}; float addition is not associative — "
            "wrap the iterable in sorted(...) to pin the fold order",
        ))

    # -------------------------------------------------------- bindings
    def _bind(self, name: str, value: ast.expr) -> None:
        why = self._reason(value)
        self.nondet.pop(name, None)
        self.dictlike.discard(name)
        if why is not None:
            self.nondet[name] = why
        elif isinstance(value, (ast.Dict, ast.DictComp)):
            self.dictlike.add(name)
        elif isinstance(value, ast.Call) and leaf_name(value.func) == "dict":
            self.dictlike.add(name)

    def run(self, body: List[ast.stmt]) -> "_ScopeScan":
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes are scanned on their own
            for expr in own_exprs(stmt):
                for sub in walk_expr_shallow(expr):
                    if isinstance(sub, ast.Call):
                        self._check_call(sub)
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._bind(target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self._bind(stmt.target.id, stmt.value)
            elif isinstance(stmt, ast.AugAssign):
                if isinstance(stmt.target, ast.Name):
                    # Mutated: whatever we proved no longer holds.
                    self.nondet.pop(stmt.target.id, None)
                    self.dictlike.discard(stmt.target.id)
            elif isinstance(stmt, ast.For):
                for sub in ast.walk(stmt.target):
                    if isinstance(sub, ast.Name):
                        self.nondet.pop(sub.id, None)
                        self.dictlike.discard(sub.id)
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    self.run(inner)
            for handler in getattr(stmt, "handlers", ()) or ():
                self.run(handler.body)
        return self


@register
class OrderedReduction(Rule):
    id = "R015"
    title = "float reductions must fold a deterministically ordered iterable"
    description = (
        "In src/repro/{core,execution,market,backtest}, sum/np.sum, "
        "functools.reduce and itertools.accumulate must not fold sets, "
        "filesystem enumerations (os.listdir, glob, Path.iterdir) or "
        "dict views of provably-dict receivers: float addition is not "
        "associative, so a hash- or OS-defined fold order changes the "
        "result in the last ulps run to run. sorted(...) pins the "
        "order and clears the finding (list(...) does not). "
        "math.fsum is exempt — correctly rounded, order-independent."
    )

    def applies(self, relpath: str) -> bool:
        return in_packages(relpath, ORDERED_PACKAGES) and not in_benchmarks(
            relpath
        )

    def check(self, unit, ctx) -> Iterator[Finding]:
        yield from _ScopeScan(self, unit).run(unit.tree.body).findings
        for node in ast.walk(unit.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from _ScopeScan(self, unit).run(node.body).findings
            elif isinstance(node, ast.ClassDef):
                scan = _ScopeScan(self, unit)
                for stmt in node.body:
                    if not isinstance(
                        stmt,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        scan.run([stmt])
                yield from scan.findings
        return
