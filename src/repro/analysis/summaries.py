"""Interprocedural function summaries, iterated to fixpoint (v4).

Classic summary-based analysis: every function gets a
:class:`FunctionSummary` — whether its return value carries process
entropy, which of its parameters (transitively) reach a seed sink, and
which modeled exceptions can escape it — and summaries are computed
over the call graph's SCC condensation (:meth:`~.project.ProjectGraph.
sccs`) in reverse topological order.  Acyclic chains converge in one
visit per function; mutually-recursive groups iterate within their SCC
until the (finite, small) facts stop changing.

Alongside the per-function table, the index records per class the set
of instance fields (``self.x``) any method assigns from process
entropy.  R001's taint reads them, so seed taint flows through
objects, not just locals.

Conservatism splits by consumer.  The entropy/sink facts keep
the under-approximation contract — unresolvable calls produce no facts,
so rules miss findings rather than invent them.  The exception facts
invert it on purpose: R016 asserts the *absence* of escaping
``OSError``/``EOFError``, which needs a may-escape **over**-
approximation, sourced from a curated table of stdlib raisers plus
callee summaries (an unresolvable call still contributes nothing — the
table is what keeps the direction honest for the IO leaves that
matter).

Summaries are content-keyed per SCC — the key hashes every member's
module content hash plus the keys of all callee SCCs — and join the
two-tier lint cache, so a warm ``--changed`` run re-summarizes only the
SCCs reachable from the edit and replays the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from hashlib import sha256
from time import perf_counter
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from .dataflow import EntropyTaint, SEED_SINK_LEAVES, all_param_names
from .project import FuncKey, ProjectGraph
from .symbols import FunctionInfo, dotted_name, own_exprs, walk_expr_shallow

#: Iterations an SCC may take before we accept the last state.  Facts
#: cross one call edge per sweep, so a cycle of N functions needs at
#: most ~N sweeps; the floor covers tiny cycles.
_MAX_SCC_SWEEPS = 16

# ----------------------------------------------------------------------
# exception-flow model (R016)
# ----------------------------------------------------------------------

#: The two abstract exception facts R016 reasons about.  OSError stands
#: for itself and every subclass (FileNotFoundError and friends raised
#: by the IO leaves below); EOFError is what truncated pickles/npz
#: archives surface through ``np.load``.
OS_ERROR = "OSError"
EOF_ERROR = "EOFError"

#: Exception names that *raise* as the abstract OSError fact.
_OS_RAISE_NAMES = frozenset({
    "OSError", "IOError", "FileNotFoundError", "PermissionError",
    "FileExistsError", "IsADirectoryError", "NotADirectoryError",
    "InterruptedError", "BlockingIOError", "TimeoutError",
    "BrokenPipeError", "ConnectionError", "ConnectionResetError",
    "ConnectionAbortedError", "ConnectionRefusedError",
})

#: Handler names that *catch* the abstract OSError fact.  Deliberately
#: narrower than the raise set: ``except FileNotFoundError`` does not
#: prove a general OSError cannot escape, so only the exact type and
#: the catch-alls count (may-escape stays an over-approximation).
_OS_CATCH_NAMES = frozenset({"OSError", "IOError"})
_CATCH_ALL_NAMES = frozenset({"Exception", "BaseException"})

#: Call leaves (last dotted segment) that can raise OSError.  Curated
#: for unambiguity: ``os.remove``/``list.remove`` and ``os.replace``/
#: ``str.replace`` share leaves, so ``remove`` and ``replace`` are
#: *excluded* — a missing leaf only under-reports, which the fail-open
#: sweep tolerates better than false alarms.
_OS_RAISER_LEAVES = frozenset({
    "open", "fdopen", "mkstemp", "mkdtemp", "unlink", "stat", "lstat",
    "mkdir", "makedirs", "rmdir", "rename", "utime", "chmod",
    "touch", "scandir", "listdir", "rmtree", "read_text", "read_bytes",
    "write_text", "write_bytes", "SharedMemory", "getsize",
})

#: Exact dotted calls with richer raise sets than their leaf implies.
_DOTTED_RAISERS: Dict[str, FrozenSet[str]] = {
    "np.load": frozenset({OS_ERROR, EOF_ERROR}),
    "numpy.load": frozenset({OS_ERROR, EOF_ERROR}),
    "np.save": frozenset({OS_ERROR}),
    "numpy.save": frozenset({OS_ERROR}),
    "np.savez": frozenset({OS_ERROR}),
    "numpy.savez": frozenset({OS_ERROR}),
}

#: Pool methods that run a callable in a worker process: the callable's
#: escaping exceptions resurface in the parent when the result is
#: gathered, so the submit site inherits the entry's raise set.
_BOUNDARY_LEAVES = frozenset({"submit", "run_ordered", "map"})


@dataclass(frozen=True)
class FunctionSummary:
    """Interprocedural facts of one function, joined at call sites."""

    entropy_return: bool = False
    seed_sink_params: FrozenSet[str] = frozenset()
    raises: FrozenSet[str] = frozenset()

    def to_json(self) -> dict:
        return {
            "entropy": self.entropy_return,
            "sinks": sorted(self.seed_sink_params),
            "raises": sorted(self.raises),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FunctionSummary":
        return cls(
            entropy_return=bool(doc.get("entropy")),
            seed_sink_params=frozenset(doc.get("sinks", ())),
            raises=frozenset(doc.get("raises", ())),
        )


# ----------------------------------------------------------------------
# per-function fact extraction
# ----------------------------------------------------------------------


#: ``raise_resolver(call_node, dotted) -> frozenset`` of abstract
#: exception facts the call may raise.
RaiseResolver = Callable[[ast.Call, str], FrozenSet[str]]

#: Optional site recorder: ``(exc, lineno, col, why)`` per raising site.
SiteRecorder = Callable[[str, int, int, str], None]


def _handler_catches(handler: ast.ExceptHandler) -> Tuple[Set[str], bool]:
    """Abstract facts this handler catches; bool = catches everything."""
    if handler.type is None:
        return {OS_ERROR, EOF_ERROR}, True
    names: List[str] = []
    if isinstance(handler.type, ast.Tuple):
        names = [dotted_name(t).rsplit(".", 1)[-1] for t in handler.type.elts]
    else:
        names = [dotted_name(handler.type).rsplit(".", 1)[-1]]
    caught: Set[str] = set()
    for name in names:
        if name in _CATCH_ALL_NAMES:
            return {OS_ERROR, EOF_ERROR}, True
        if name in _OS_CATCH_NAMES:
            caught.add(OS_ERROR)
        if name == "EOFError":
            caught.add(EOF_ERROR)
    return caught, False


def _raise_facts(exc: ast.expr) -> FrozenSet[str]:
    """Abstract facts of an explicit ``raise <exc>`` statement."""
    node = exc
    if isinstance(node, ast.Call):
        node = node.func
    leaf = dotted_name(node).rsplit(".", 1)[-1]
    if leaf in _OS_RAISE_NAMES:
        return frozenset({OS_ERROR})
    if leaf == "EOFError":
        return frozenset({EOF_ERROR})
    return frozenset()


def escaping_raises(
    body: List[ast.stmt],
    resolver: RaiseResolver,
    record: Optional[SiteRecorder] = None,
    _reraise: FrozenSet[str] = frozenset(),
) -> FrozenSet[str]:
    """Abstract exceptions that can escape ``body`` (may-escape).

    Handles the try/except/else/finally geometry precisely enough for
    the repo's fail-open idioms: handler sets subtract from the body's
    facts, a handler's own body (including a bare ``raise`` re-raising
    what it caught) contributes at the *outer* level, and ``else``/
    ``finally`` clauses escape past the handlers entirely.
    """
    out: Set[str] = set()
    for stmt in body:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if isinstance(stmt, ast.Raise):
            if stmt.exc is None:
                out |= _reraise
                if record and _reraise:
                    for exc in sorted(_reraise):
                        record(exc, stmt.lineno, stmt.col_offset,
                               "bare raise re-raises the caught exception")
            else:
                facts = _raise_facts(stmt.exc)
                out |= facts
                if record:
                    for exc in sorted(facts):
                        record(exc, stmt.lineno, stmt.col_offset,
                               f"explicit raise of {exc}")
            continue
        # Calls in this statement's own expressions.
        for expr in own_exprs(stmt):
            for sub in walk_expr_shallow(expr):
                if isinstance(sub, ast.Call):
                    dotted = dotted_name(sub.func)
                    facts = resolver(sub, dotted)
                    out |= facts
                    if record:
                        for exc in sorted(facts):
                            record(exc, sub.lineno, sub.col_offset,
                                   f"{dotted or 'call'}() may raise {exc}")
        if isinstance(stmt, ast.Try):
            # Swallow the recorder for the guarded body: only facts that
            # survive the handlers are real sites at this level.
            body_set = escaping_raises(stmt.body, resolver, None, _reraise)
            caught_union: Set[str] = set()
            for handler in stmt.handlers:
                caught, _all = _handler_catches(handler)
                caught_union |= caught
            survived = body_set - caught_union
            out |= survived
            if record and survived:
                # Re-walk the body with the recorder, keeping only the
                # escaping facts' sites.
                escaping_raises(
                    stmt.body,
                    resolver,
                    lambda e, ln, c, w: (
                        record(e, ln, c, w) if e in survived else None
                    ),
                    _reraise,
                )
            for handler in stmt.handlers:
                caught, _all = _handler_catches(handler)
                out |= escaping_raises(
                    handler.body, resolver, record,
                    _reraise=frozenset(body_set & caught),
                )
            out |= escaping_raises(stmt.orelse, resolver, record, _reraise)
            out |= escaping_raises(stmt.finalbody, resolver, record, _reraise)
        else:
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    out |= escaping_raises(inner, resolver, record, _reraise)
    return frozenset(out)


class _SinkFlow:
    """Which parameters of one function reach a seed sink.

    A tiny origin-tracking pass: every local maps to the set of
    parameters its value derives from (assignments union, loops bind
    from their iterable), and any argument fed to ``default_rng``/
    ``SeedSequence`` — or to a callee parameter that itself reaches a
    sink, per that callee's summary — marks its origin parameters.
    """

    def __init__(
        self,
        params: Tuple[str, ...],
        callee_sinks: Callable[
            [str], Optional[Tuple[Tuple[str, ...], FrozenSet[str]]]
        ],
    ) -> None:
        self.env: Dict[str, Set[str]] = {p: {p} for p in params}
        self.callee_sinks = callee_sinks
        self.sink_params: Set[str] = set()

    def _origins(self, node: ast.AST) -> Set[str]:
        out: Set[str] = set()
        for sub in walk_expr_shallow(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out |= self.env.get(sub.id, set())
        return out

    def _bind(self, target: ast.expr, origins: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(origins)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, origins)

    def _scan_calls(self, stmt: ast.stmt) -> None:
        for expr in own_exprs(stmt):
            for sub in walk_expr_shallow(expr):
                if not isinstance(sub, ast.Call):
                    continue
                dotted = dotted_name(sub.func)
                leaf = dotted.rsplit(".", 1)[-1]
                if leaf in SEED_SINK_LEAVES:
                    for arg in (*sub.args, *[k.value for k in sub.keywords]):
                        self.sink_params |= self._origins(arg)
                    continue
                resolved = self.callee_sinks(dotted) if dotted else None
                if resolved is None:
                    continue
                params, sinks = resolved
                if not sinks:
                    continue
                if params and params[0] in ("self", "cls") and isinstance(
                    sub.func, ast.Attribute
                ):
                    params = params[1:]
                for pname, arg in zip(params, sub.args):
                    if isinstance(arg, ast.Starred):
                        break
                    if pname in sinks:
                        self.sink_params |= self._origins(arg)
                named = set(params)
                for kw in sub.keywords:
                    if kw.arg in named and kw.arg in sinks:
                        self.sink_params |= self._origins(kw.value)

    def run(self, body: List[ast.stmt]) -> "_SinkFlow":
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            self._scan_calls(stmt)
            if isinstance(stmt, ast.Assign):
                origins = self._origins(stmt.value)
                for target in stmt.targets:
                    self._bind(target, origins)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind(stmt.target, self._origins(stmt.value))
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self.env.setdefault(stmt.target.id, set()).update(
                    self._origins(stmt.value)
                )
            elif isinstance(stmt, ast.For):
                self._bind(stmt.target, self._origins(stmt.iter))
            for attr in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, attr, None)
                if inner:
                    self.run(inner)
            for handler in getattr(stmt, "handlers", ()) or ():
                self.run(handler.body)
        return self


# ----------------------------------------------------------------------
# the index
# ----------------------------------------------------------------------


@dataclass
class SummaryIndex:
    """Fixpoint summary table plus per-class entropy fields."""

    functions: Dict[FuncKey, FunctionSummary] = field(default_factory=dict)
    #: ``(module, class qualname)`` → ``"self.x"`` keys some method of
    #: the class assigns from process entropy.
    class_entropy: Dict[Tuple[str, str], FrozenSet[str]] = field(
        default_factory=dict
    )
    #: Cache payload: SCC content key → [[module, qualname, summary]].
    scc_payload: Dict[str, List[list]] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)
    _graph: Optional[ProjectGraph] = None

    # ------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        graph: ProjectGraph,
        module_hashes: Dict[str, str],
        cached: Optional[Dict[str, List[list]]] = None,
    ) -> "SummaryIndex":
        t0 = perf_counter()
        index = cls(_graph=graph)
        index._build_class_entropy(graph)
        components, component_of = graph.sccs()
        comp_keys: List[str] = []
        replayed = recomputed = 0
        for comp_idx, comp in enumerate(components):
            h = sha256()
            for module, qualname in comp:
                h.update(module.encode())
                h.update(b"\x00")
                h.update(qualname.encode())
                h.update(b"\x00")
                h.update(module_hashes.get(module, "").encode())
                h.update(b"\x00")
            callee_keys = sorted({
                comp_keys[component_of[target]]
                for member in comp
                for target in graph.call_edges.get(member, ())
                if target in component_of
                and component_of[target] != comp_idx
            })
            h.update("\x00".join(callee_keys).encode())
            key = h.hexdigest()
            comp_keys.append(key)

            hit = cached.get(key) if cached else None
            if hit is not None and len(hit) == len(comp):
                for module, qualname, doc in hit:
                    index.functions[(module, qualname)] = (
                        FunctionSummary.from_json(doc)
                    )
                replayed += len(comp)
            else:
                index._fixpoint(graph, comp)
                recomputed += len(comp)
            index.scc_payload[key] = [
                [m, q, index.functions[(m, q)].to_json()] for m, q in comp
            ]
        index.stats = {
            "sccs": len(components),
            "functions": len(graph.functions),
            "replayed": replayed,
            "recomputed": recomputed,
            "fixpoint_s": round(perf_counter() - t0, 4),
        }
        return index

    # ------------------------------------------------ class entropy
    def _build_class_entropy(self, graph: ProjectGraph) -> None:
        for syms in graph.by_relpath.values():
            tree = syms.unit.tree

            def walk(body, prefix: str) -> None:
                for node in body:
                    if isinstance(node, ast.ClassDef):
                        qual = f"{prefix}{node.name}"
                        self.class_entropy[(syms.module, qual)] = (
                            _entropy_fields(node)
                        )
                        walk(node.body, f"{qual}.")
                    elif isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        walk(node.body, f"{prefix}{node.name}.")

            walk(tree.body, "")

    def entropy_fields_for(self, info: FunctionInfo) -> FrozenSet[str]:
        """Entropy-assigned fields of the class a method belongs to."""
        prefix, _, _ = info.qualname.rpartition(".")
        return self.class_entropy.get((info.module, prefix), frozenset())

    # -------------------------------------------------------- fixpoint
    def _fixpoint(self, graph: ProjectGraph, comp: List[FuncKey]) -> None:
        sweeps = min(_MAX_SCC_SWEEPS, len(comp) + 3)
        for _ in range(sweeps):
            changed = False
            for key in comp:
                info = graph.functions[key]
                new = self._summarize(graph, info)
                if self.functions.get(key) != new:
                    self.functions[key] = new
                    changed = True
            if not changed:
                break

    def _summarize(
        self, graph: ProjectGraph, info: FunctionInfo
    ) -> FunctionSummary:
        node = info.node
        taint = EntropyTaint(
            params=all_param_names(node),
            call_resolver=self.entropy_resolver(info),
            tainted_fields=self.entropy_fields_for(info),
        )
        taint.run(node.body)

        flow = _SinkFlow(
            all_param_names(node), self.sink_resolver(info)
        ).run(node.body)

        raises = escaping_raises(node.body, self.raise_resolver(info))

        return FunctionSummary(
            entropy_return=taint.entropy_return,
            seed_sink_params=frozenset(flow.sink_params),
            raises=raises,
        )

    # ------------------------------------------------------- resolvers
    def entropy_resolver(self, caller: Optional[FunctionInfo]):
        """Why a call's return value is process entropy, or None."""

        def resolve(dotted: str) -> Optional[str]:
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is None:
                return None
            summary = self.functions.get(callee.key)
            if summary is not None and summary.entropy_return:
                return f"{dotted}() (its return value derives from process state)"
            return None

        return resolve

    def sink_resolver(self, caller: Optional[FunctionInfo]):
        """Callee parameter names + the subset reaching a seed sink."""

        def resolve(
            dotted: str,
        ) -> Optional[Tuple[Tuple[str, ...], FrozenSet[str]]]:
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is None:
                return None
            summary = self.functions.get(callee.key)
            if summary is None:
                return None
            params = all_param_names(callee.node)
            return params, summary.seed_sink_params

        return resolve

    def raise_resolver(self, caller: Optional[FunctionInfo]) -> RaiseResolver:
        """May-raise facts of one call site (table + summaries)."""

        def resolve(call: ast.Call, dotted: str) -> FrozenSet[str]:
            if not dotted:
                return frozenset()
            if dotted in _DOTTED_RAISERS:
                return _DOTTED_RAISERS[dotted]
            leaf = dotted.rsplit(".", 1)[-1]
            out: Set[str] = set()
            if leaf in _OS_RAISER_LEAVES:
                out.add(OS_ERROR)
            callee = (
                self._graph.resolve_call(caller, dotted)
                if self._graph is not None and caller is not None
                else None
            )
            if callee is not None:
                summary = self.functions.get(callee.key)
                if summary is not None:
                    out |= summary.raises
            if leaf in _BOUNDARY_LEAVES and call.args:
                # The submitted callable runs in a worker; whatever
                # escapes it resurfaces in this function when results
                # are gathered.
                entry_name = dotted_name(call.args[0])
                entry = (
                    self._graph.resolve_call(caller, entry_name)
                    if self._graph is not None
                    and caller is not None
                    and entry_name
                    else None
                )
                if entry is not None:
                    entry_summary = self.functions.get(entry.key)
                    if entry_summary is not None:
                        out |= entry_summary.raises
            return frozenset(out)

        return resolve


def _entropy_fields(node: ast.ClassDef) -> FrozenSet[str]:
    """Fields any of one class's methods assigns from process entropy.

    The join is flow-insensitive across methods by design — any method
    may run between any two others — so one tainted write anywhere
    taints the field in every method.
    """
    entropy: Set[str] = set()
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        taint = EntropyTaint(params=all_param_names(method))
        taint.run(method.body)
        entropy.update(
            key for key, dirty in taint.field_writes.items() if dirty
        )
    return frozenset(entropy)
