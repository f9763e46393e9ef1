"""R016 — documented fail-open functions must actually fail open.

The repo's IO layers (artifact store, lint cache) promise
*fail-open* behaviour: a missing file or a torn write degrades to a
recompute or a cold run — never to an exception crossing the caller's
boundary.  The promise lives in
docstrings, which nothing checked: PR 8's artifact store shipped with
a guarded ``load`` but an ``_entries`` sweep whose ``stat`` could still
raise on a concurrently-evicted file, and the v3 lint cache's
dependency probe had the same TOCTOU shape.

This rule makes the docstring binding.  Any function whose docstring
contains ``fail-open`` (or ``fail open``) is checked against the
exception-flow half of the summary fixpoint: if an abstract ``OSError``
or ``EOFError`` fact can escape its body, every escaping site is
flagged — an ``open``/``stat``/``SharedMemory`` call outside a
``try``, an ``except FileNotFoundError`` that narrows away the general
``OSError`` case, a bare ``raise`` re-raising what a handler caught,
or a worker entry whose escaping raises resurface at the
``submit``/``run_ordered`` gather in the parent.

Unlike every other fact in the analyzer, exception flow is a
**may-escape over-approximation** (see :mod:`..summaries`): the rule
asserts the *absence* of escapes, so it must err toward reporting.
The raiser table is curated rather than exhaustive, which keeps the
direction honest for the IO leaves the repo actually uses; a site
that handles the error in a way the model cannot see carries an
inline ``# reprolint: disable=R016`` with its justification.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from ..findings import Finding
from ..registry import Rule, register
from ..summaries import escaping_raises

_MARKER = re.compile(r"fail[- ]open", re.IGNORECASE)


@register
class FailOpenContract(Rule):
    id = "R016"
    title = "documented fail-open functions must not leak OSError/EOFError"
    scope = "project"
    needs_summaries = True
    description = (
        "A function whose docstring promises fail-open behaviour "
        "('fail-open'/'fail open') must not let OSError or EOFError "
        "escape: the interprocedural exception-flow summary "
        "(may-escape, from a curated table of IO raisers plus callee "
        "summaries) flags every escaping site, including raises that "
        "surface through a worker submit/run_ordered boundary and "
        "handlers that catch a subclass (FileNotFoundError) while the "
        "general OSError still escapes."
    )

    def check_project(self, ctx) -> Iterator[Finding]:
        graph = ctx.project
        summaries = ctx.summaries
        if graph is None or summaries is None:
            return
        for key in sorted(graph.functions):
            info = graph.functions[key]
            doc = ast.get_docstring(info.node)
            if not doc or not _MARKER.search(doc):
                continue
            syms = graph.modules.get(info.module)
            unit = ctx.units.get(syms.relpath) if syms is not None else None
            if unit is None:
                continue

            sites: List[Tuple[int, int, str, str]] = []
            escaped = escaping_raises(
                info.node.body,
                summaries.raise_resolver(info),
                record=lambda exc, ln, col, why: sites.append(
                    (ln, col, exc, why)
                ),
            )
            if not escaped:
                continue
            seen: Set[Tuple[int, int, str]] = set()
            for ln, col, exc, why in sites:
                if exc not in escaped or (ln, col, exc) in seen:
                    continue
                seen.add((ln, col, exc))
                yield self.finding(
                    unit, ln, col,
                    f"{info.qualname}() documents a fail-open contract "
                    f"but {exc} can escape here ({why}); catch it and "
                    "degrade — log or count the failure and fall back — "
                    "instead of letting the caller crash",
                )
