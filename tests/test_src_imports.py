"""Production code never imports test code.

The scalar references under ``tests/oracles`` exist only for the parity
tests; an import of ``tests`` from ``src/repro`` would quietly turn one
back into a production path.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def imported_modules(tree: ast.AST) -> list:
    """(line, module) for every absolute import and every
    ``import_module``/``__import__`` call with a literal name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module or ""))
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            out.append((node.lineno, node.args[0].value))
    return out


def is_tests(module: str) -> bool:
    return module == "tests" or module.startswith("tests.")


def test_src_never_imports_tests():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {module}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for line, module in imported_modules(
            ast.parse(path.read_text(encoding="utf-8"))
        )
        if is_tests(module)
    ]
    assert offenders == []


def test_detects_each_import_form():
    tree = ast.parse(
        "import tests.oracles\n"
        "from tests.oracles.scalar_replay import replay_window\n"
        "importlib.import_module('tests.oracles.market_generator')\n"
        "from repro.execution import replay\n"
    )
    found = [m for _, m in sorted(imported_modules(tree)) if is_tests(m)]
    assert found == [
        "tests.oracles",
        "tests.oracles.scalar_replay",
        "tests.oracles.market_generator",
    ]
