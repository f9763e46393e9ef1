"""Per-module symbol extraction for the project graph.

One :class:`ModuleSymbols` summarises everything the cross-module rules
need from a parsed module without keeping rule logic here: the dotted
module name derived from its path, the import table (local alias →
dotted target, with relative imports resolved against the module's
package), every function/method definition with the calls its body
makes, and the module-level names it binds.  :mod:`.project` stitches
these into import and call graphs.

The small AST helpers every analysis shares live here too, one per job:
:func:`dotted_name`, :func:`leaf_name`, :func:`walk_expr_shallow` and
:func:`own_exprs`.

Like the rest of the linter this is stdlib-``ast`` only and never
imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ModuleUnit


def module_name_for(relpath: str) -> str:
    """Dotted module name for a project-relative posix path.

    ``src/repro/execution/replay.py`` → ``repro.execution.replay`` and
    ``pkg/__init__.py`` → ``pkg``.  A leading ``src/`` (or ``lib/``)
    segment is a layout artefact, not a package, and is dropped; test
    fixtures rooted elsewhere resolve the same way.
    """
    parts = list(relpath.split("/"))
    if parts and parts[0] in ("src", "lib"):
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(p for p in parts if p)


@dataclass
class CallSite:
    """One call made inside a function body, as written in source."""

    name: str  # dotted name as written, e.g. "obs.audit_run_result"
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """One function or method definition."""

    name: str
    qualname: str  # "f" or "Cls.f" (nesting flattened with dots)
    module: str  # dotted module name
    lineno: int
    col: int
    node: ast.AST = field(repr=False)
    params: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    is_method: bool = False

    @property
    def key(self) -> Tuple[str, str]:
        """Graph node id: ``(module, qualname)``."""
        return (self.module, self.qualname)


@dataclass
class ModuleSymbols:
    """Symbol summary of one module."""

    module: str
    relpath: str
    unit: "ModuleUnit" = field(repr=False)
    imports: Dict[str, str] = field(default_factory=dict)  # alias -> dotted
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    module_names: Dict[str, int] = field(default_factory=dict)  # name -> line

    def resolve_local(self, name: str) -> Optional[str]:
        """Dotted target of ``name`` in this module's namespace, if any.

        A locally-defined function resolves to ``module.name``; an
        imported alias resolves through the import table.  Dotted names
        resolve their head: ``obs.audit_run_result`` with ``obs`` →
        ``repro.obs`` becomes ``repro.obs.audit_run_result``.
        """
        head, _, rest = name.partition(".")
        if head in self.imports:
            target = self.imports[head]
            return f"{target}.{rest}" if rest else target
        if head in self.functions and not rest:
            return f"{self.module}.{head}"
        if head in self.module_names and not rest:
            return f"{self.module}.{head}"
        return None


def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def leaf_name(node: ast.AST) -> str:
    """Last segment of a Name/Attribute (``c`` for ``a.b.c``), else ``""``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def walk_expr_shallow(node: ast.AST):
    """Walk an expression without entering lambdas or nested defs.

    A lambda body runs when the lambda is *called*, somewhere else
    entirely — attributing its calls to the enclosing statement would
    over-report raises and sink flows at the wrong site.
    """
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(
            cur, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(cur))


def own_exprs(stmt: ast.stmt) -> List[ast.AST]:
    """A statement's own expressions, excluding nested block bodies."""
    own: List[ast.AST] = []
    for fname, value in ast.iter_fields(stmt):
        if fname in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.AST):
            own.append(value)
        elif isinstance(value, list):
            own.extend(v for v in value if isinstance(v, ast.AST))
    return own


def _resolve_relative(module: str, relpath: str, level: int, target: str) -> str:
    """Absolute dotted module for a ``from ...target import x`` statement."""
    is_package = relpath.endswith("/__init__.py")
    parts = module.split(".") if module else []
    # level=1 means "this package": for a plain module that is its
    # parent package, for a package __init__ it is the package itself.
    drop = level - 1 if is_package else level
    if drop > 0:
        parts = parts[:-drop] if drop <= len(parts) else []
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def _collect_calls(fn_node: ast.AST) -> List[CallSite]:
    calls: List[CallSite] = []
    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Call):
            name = dotted_name(sub.func)
            if name:
                calls.append(CallSite(name, sub.lineno, sub.col_offset))
    return calls


def extract_symbols(unit: "ModuleUnit") -> ModuleSymbols:
    """Build the :class:`ModuleSymbols` summary for one parsed module."""
    module = module_name_for(unit.relpath)
    syms = ModuleSymbols(module=module, relpath=unit.relpath, unit=unit)

    def add_function(node, qual_prefix: str, is_method: bool) -> None:
        qualname = f"{qual_prefix}{node.name}" if qual_prefix else node.name
        info = FunctionInfo(
            name=node.name,
            qualname=qualname,
            module=module,
            lineno=node.lineno,
            col=node.col_offset,
            node=node,
            params=[a.arg for a in node.args.args if a.arg not in ("self", "cls")],
            calls=_collect_calls(node),
            is_method=is_method,
        )
        syms.functions[qualname] = info

    def walk_body(body, qual_prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add_function(node, qual_prefix, in_class)
                # Nested defs flatten into the qualname namespace so the
                # call graph can still attribute their calls.
                walk_body(node.body, f"{qual_prefix}{node.name}.", False)
            elif isinstance(node, ast.ClassDef):
                walk_body(node.body, f"{qual_prefix}{node.name}.", True)

    walk_body(unit.tree.body, "", False)

    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                syms.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(
                module, unit.relpath, node.level, node.module or ""
            ) if node.level else (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                syms.imports[local] = f"{base}.{alias.name}" if base else alias.name

    for node in unit.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    syms.module_names[target.id] = node.lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            syms.module_names[node.target.id] = node.lineno
        elif isinstance(node, ast.ClassDef):
            syms.module_names[node.name] = node.lineno

    return syms
