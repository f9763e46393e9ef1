"""Intraprocedural facts shared by the lint rules.

Two small layers live here:

* The **naming-convention classifier** (``classify_name`` /
  ``infer_dim``): the dimension (dollars, hours, seconds) an
  identifier declares by its words or suffix.  R005 reads it to tell a
  dollar-total equality from any other float comparison.
* The **entropy taint** (:class:`EntropyTaint` /
  :func:`analyze_entropy`): walks one function in source order with a
  clean/tainted environment and reports seeds derived from process
  state.  R001 runs it per function, and the summary fixpoint
  (:mod:`.summaries`) runs it to learn which functions return entropy.

Both keep the conservatism contract: a fact is either *confident* or
absent, and dynamic features simply produce no facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .symbols import dotted_name, own_exprs

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


def self_attr_key(node: ast.AST) -> Optional[str]:
    """``"self.x"`` for a plain instance-field reference, else None.

    Only single-level ``self.<field>`` accesses produce facts —
    ``self.a.b`` would need an alias analysis to be sound, so it stays
    unknown (confident-or-absent).  The string key lets the entropy
    taint record field writes (``"self.seed"``) beside its locals.
    """
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _block_bodies(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        inner = getattr(stmt, attr, None)
        if inner and not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield inner
    for handler in getattr(stmt, "handlers", ()) or ():
        yield handler.body


# ----------------------------------------------------------------------
# entropy taint: seed derivations for R001
# ----------------------------------------------------------------------

#: Calls whose dotted leaf is pure process entropy.  ``perf_counter``/
#: ``monotonic`` are *allowed* as wall timers (R001 leaves them alone)
#: but are entropy the moment they feed a seed.
ENTROPY_CALL_LEAVES = frozenset(
    {"getpid", "perf_counter", "monotonic", "urandom", "uuid4",
     "uuid1", "token_bytes", "token_hex"}
)

#: Dotted wall-clock reads that make results run-dependent.  Defined
#: here because both entropy consumers — R001 (its syntactic ban and
#: its seed-lineage check) and the summary fixpoint — must agree on
#: what a clock is; leaves alone don't work since ``history.today`` is
#: not a clock.
BANNED_CLOCK_ATTRS = frozenset(
    {"time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
     "datetime.today", "date.today", "datetime.datetime.now",
     "datetime.datetime.utcnow", "datetime.datetime.today",
     "datetime.date.today"}
)

#: Call leaves that consume a seed: their arguments must derive from
#: the job payload (parameters/constants), never from process state.
SEED_SINK_LEAVES = frozenset({"default_rng", "SeedSequence"})


@dataclass
class EntropyIssue:
    """One nondeterministic seed derivation inside a function."""

    lineno: int
    col: int
    source: str  # human-readable description of the entropy source


class EntropyTaint:
    """Tracks process-scoped entropy flowing into seed derivations.

    The payload contract of DESIGN.md §12 is that every worker job is a
    pure function of its ``(seed, cell)`` arguments.  This pass walks
    one function with a clean/tainted environment: parameters and
    constants are clean, reads of *mutated* module globals and entropy
    calls (clocks, pids, os randomness) are tainted, assignments
    propagate — including through container literals and subscripts, so
    ``seed = args[0]`` stays clean while ``state[0]`` of
    ``state = [time.time()]`` does not.  An issue fires only when a
    seed sink (``default_rng``/``SeedSequence``) consumes a provably
    tainted expression, or is called with no seed at all (OS entropy).
    """

    def __init__(
        self,
        params: Tuple[str, ...] = (),
        process_globals: Optional[set] = None,
        call_resolver: Optional[Callable[[str], Optional[str]]] = None,
        sink_param_resolver: Optional[
            Callable[[str], Optional[Tuple[Tuple[str, ...], frozenset]]]
        ] = None,
        tainted_fields: Optional[frozenset] = None,
    ) -> None:
        self.bound = set(params)  # locally bound, currently clean
        self.tainted: set = set()
        self.process_globals = process_globals or set()
        #: Interprocedural hooks, fed by the summary fixpoint
        #: (:mod:`.summaries`).  ``call_resolver(dotted)`` describes why
        #: a call's *return value* is entropy (the callee's summary says
        #: so), ``sink_param_resolver(dotted)`` yields the callee's
        #: parameter names plus the subset that transitively reach a
        #: seed sink, and ``tainted_fields`` holds ``"self.x"`` keys the
        #: enclosing class assigns from process state in some method.
        self.call_resolver = call_resolver
        self.sink_param_resolver = sink_param_resolver
        self.tainted_fields = tainted_fields or frozenset()
        self.entropy_return = False
        #: ``"self.x"`` → True when some assignment to the field in this
        #: body was entropy-tainted (read back by the class-facts join).
        self.field_writes: Dict[str, bool] = {}
        self.issues: List[EntropyIssue] = []

    # ------------------------------------------------------------------
    def expr_entropy(self, node: ast.AST) -> Optional[str]:
        """Why ``node`` is process entropy, or None when clean."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                if sub.id in self.tainted:
                    return f"{sub.id!r} (derived from process state)"
                if sub.id not in self.bound and sub.id in self.process_globals:
                    return f"mutated module global {sub.id!r}"
            elif isinstance(sub, ast.Attribute):
                key = self_attr_key(sub)
                if key is not None and key in self.tainted_fields:
                    return f"instance field {key!r} (assigned from process state)"
            elif isinstance(sub, ast.Call):
                dotted = dotted_name(sub.func)
                leaf = dotted.rsplit(".", 1)[-1]
                if dotted in BANNED_CLOCK_ATTRS or leaf in ENTROPY_CALL_LEAVES:
                    return f"{dotted}()"
                if self.call_resolver is not None:
                    why = self.call_resolver(dotted)
                    if why is not None:
                        return why
        return None

    def _check_sinks(self, stmt: ast.stmt) -> None:
        # Only this statement's own expressions: nested block bodies are
        # re-walked by run() *after* their preceding bindings apply, so
        # scanning them here would consult a stale environment.
        for sub in (s for expr in own_exprs(stmt) for s in ast.walk(expr)):
            if not isinstance(sub, ast.Call):
                continue
            dotted = dotted_name(sub.func)
            if dotted.rsplit(".", 1)[-1] not in SEED_SINK_LEAVES:
                self._check_transitive_sink(sub, dotted)
                continue
            if not sub.args and not sub.keywords:
                self.issues.append(EntropyIssue(
                    sub.lineno, sub.col_offset,
                    f"{dotted}() with no seed draws OS entropy",
                ))
                continue
            for arg in (*sub.args, *[kw.value for kw in sub.keywords]):
                source = self.expr_entropy(arg)
                if source is not None:
                    self.issues.append(EntropyIssue(
                        arg.lineno, arg.col_offset,
                        f"seed derived from {source}",
                    ))

    def _check_transitive_sink(self, sub: ast.Call, dotted: str) -> None:
        """Entropy passed to a callee parameter that reaches a seed sink.

        This is the interprocedural half of the sink check: the summary
        fixpoint records, per callee, which parameters flow (through any
        number of further calls) into a ``default_rng``/``SeedSequence``
        argument, so ``kernel(seed=time.monotonic())`` fires here even
        though the sink itself lives hops away.
        """
        if self.sink_param_resolver is None or not dotted:
            return
        resolved = self.sink_param_resolver(dotted)
        if resolved is None:
            return
        params, sink_params = resolved
        if not sink_params:
            return
        if params and params[0] in ("self", "cls") and isinstance(
            sub.func, ast.Attribute
        ):
            params = params[1:]
        bindings: List[Tuple[str, ast.expr]] = []
        for pname, arg in zip(params, sub.args):
            if isinstance(arg, ast.Starred):
                break
            bindings.append((pname, arg))
        named = set(params)
        for kw in sub.keywords:
            if kw.arg is not None and kw.arg in named:
                bindings.append((kw.arg, kw.value))
        for pname, arg in bindings:
            if pname not in sink_params:
                continue
            source = self.expr_entropy(arg)
            if source is not None:
                self.issues.append(EntropyIssue(
                    arg.lineno, arg.col_offset,
                    f"seed derived from {source} reaches a seed "
                    f"derivation through parameter {pname!r} of "
                    f"{dotted}()",
                ))

    def _bind_target(self, target: ast.expr, dirty: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.bound.add(target.id)
            if dirty is not None:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, dirty)
        else:
            key = self_attr_key(target)
            if key is not None:
                self.field_writes[key] = (
                    self.field_writes.get(key, False) or dirty is not None
                )

    def run(self, body: List[ast.stmt]) -> "EntropyTaint":
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            self._check_sinks(stmt)
            if isinstance(stmt, ast.Assign):
                dirty = self.expr_entropy(stmt.value)
                for target in stmt.targets:
                    self._bind_target(target, dirty)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                self._bind_target(stmt.target, self.expr_entropy(stmt.value))
            elif isinstance(stmt, ast.AugAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if self.expr_entropy(stmt.value) is not None:
                    self.tainted.add(stmt.target.id)
                self.bound.add(stmt.target.id)
            elif isinstance(stmt, ast.For) and isinstance(
                stmt.iter, ast.expr
            ):
                self._bind_target(stmt.target, self.expr_entropy(stmt.iter))
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                if self.expr_entropy(stmt.value) is not None:
                    self.entropy_return = True
            for inner in _block_bodies(stmt):
                self.run(inner)
        return self


def all_param_names(fn_node: ast.AST) -> Tuple[str, ...]:
    """Every parameter name of a def, including ``*args``/``**kwargs``."""
    args = fn_node.args
    params = tuple(
        a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    )
    return params + tuple(
        v.arg for v in (args.vararg, args.kwarg) if v is not None
    )


def analyze_entropy(
    fn_node: ast.AST,
    process_globals: Optional[set] = None,
    call_resolver: Optional[Callable[[str], Optional[str]]] = None,
    sink_param_resolver: Optional[
        Callable[[str], Optional[Tuple[Tuple[str, ...], frozenset]]]
    ] = None,
    tainted_fields: Optional[frozenset] = None,
) -> List[EntropyIssue]:
    """Nondeterministic seed derivations of one function body."""
    if not isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    taint = EntropyTaint(
        params=all_param_names(fn_node),
        process_globals=process_globals,
        call_resolver=call_resolver,
        sink_param_resolver=sink_param_resolver,
        tainted_fields=tainted_fields,
    )
    return taint.run(fn_node.body).issues
