"""R003 — units discipline via dataflow over naming conventions.

The two cost-accounting drifts fixed in PR 2 were both
dollars-vs-hours confusions that type annotations (everything is
``float``) could never catch.  v1 of this rule compared the *suffixes*
of the two operands of every addition/comparison; v2 runs the
intraprocedural dataflow of :mod:`..dataflow` instead, so the dimension
of a neutral name is learned from what was assigned to it and the
dimension of a call is resolved through the project graph (callee name
suffix, or the callee's own returns).  That catches the drift the
suffix pass provably misses::

    def total(cost_usd, runtime_hours):
        extra = runtime_hours        # 'extra' learns hours
        return cost_usd + extra      # v1 silent, v2 flags

Multiplication and division stay exempt — that is how rates and
conversions legitimately work — and every fact is either confident or
absent, so rates (``price_per_hour``) and unresolved calls never fire.
Assignments that *contradict* the target's own suffix are reported once
at the assignment instead of cascading at every later use.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from ..dataflow import (
    ScopeAnalyzer,
    analyze_scope,
    default_call_resolver,
    infer_return_dim,
    suffix_dim,
)
from ..findings import Finding
from ..registry import Rule, in_benchmarks, register


def _graph_resolver(graph, caller_info, memo: Dict[tuple, Optional[str]]):
    """One-hop fallback resolver (kept for summary-less invocations)."""

    def resolve(name: str) -> Optional[str]:
        callee = None
        if graph is not None and caller_info is not None:
            callee = graph.resolve_call(caller_info, name)
        if callee is None:
            return default_call_resolver(name)
        if callee.key not in memo:
            memo[callee.key] = None  # recursion guard: in-progress = unknown
            memo[callee.key] = infer_return_dim(callee.node)
        return memo[callee.key]

    return resolve


def _graph_param_resolver(graph, caller_info):
    """Parameter-name resolver: carries caller facts into the callee's
    signature (the ``mix-arg`` check).  Unresolvable calls yield None —
    the graph's under-approximation contract means a missing edge can
    only miss findings, never invent them."""

    def resolve(name: str) -> Optional[Tuple[str, ...]]:
        if graph is None or caller_info is None:
            return None
        callee = graph.resolve_call(caller_info, name)
        if callee is None:
            return None
        return tuple(a.arg for a in callee.node.args.args)

    return resolve


@register
class UnitsDiscipline(Rule):
    id = "R003"
    title = "no additions/comparisons mixing dollars, hours and seconds"
    uses_project = True  # callee return dims come from the project graph
    needs_summaries = True  # v4: dims flow through arbitrarily deep chains
    description = (
        "Dataflow dimensional analysis over naming conventions "
        "(_usd/cost_ dollars, _hours hours, _s/_seconds seconds): "
        "dimensions propagate through assignments, augmented "
        "assignments, returns, call results (resolved through the "
        "interprocedural summary fixpoint, so facts cross arbitrarily "
        "deep call chains) and instance fields (per-class self.x facts "
        "seeded by __init__), and +, -, comparisons and += whose "
        "operands confidently disagree are flagged, as are functions "
        "and variables whose unit-suffixed name conflicts with their "
        "value, and call arguments whose dimension contradicts the "
        "callee parameter they bind to. Rates like price_per_hour "
        "classify as unknown and never fire."
    )

    def applies(self, relpath: str) -> bool:
        return not in_benchmarks(relpath)

    def check(self, unit, ctx) -> Iterator[Finding]:
        graph = ctx.project
        syms = graph.by_relpath.get(unit.relpath) if graph is not None else None
        by_node: Dict[int, object] = {}
        if syms is not None:
            for info in syms.functions.values():
                by_node[id(info.node)] = info
        memo: Dict[tuple, Optional[str]] = {}

        # Module-level statements (run() skips nested defs/classes).
        yield from self._emit(
            unit,
            analyze_scope(unit.tree.body, resolver=default_call_resolver),
        )

        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._emit(
                    unit,
                    analyze_scope(node.body, resolver=default_call_resolver),
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = by_node.get(id(node))
                summaries = ctx.summaries
                self_env = self_containers = None
                if summaries is not None and info is not None:
                    resolver = summaries.dim_resolver(info)
                    facts = summaries.class_facts_for(info)
                    if facts is not None and info.is_method:
                        self_env = {
                            f"self.{f}": dim
                            for f, dim in facts.fields_dim.items()
                        }
                        self_containers = {
                            f"self.{f}": elems
                            for f, elems in facts.field_containers.items()
                        }
                else:
                    resolver = _graph_resolver(graph, info, memo)
                params = tuple(a.arg for a in node.args.args)
                yield from self._emit(
                    unit,
                    analyze_scope(
                        node.body,
                        params=params,
                        resolver=resolver,
                        declared_return=suffix_dim(node.name),
                        fn_name=node.name,
                        param_resolver=_graph_param_resolver(graph, info),
                        self_env=self_env,
                        self_containers=self_containers,
                    ),
                )

    def _emit(self, unit, analysis: ScopeAnalyzer) -> Iterator[Finding]:
        for issue in analysis.issues:
            yield self.finding(unit, issue.lineno, issue.col, issue.message)
