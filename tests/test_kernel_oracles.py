"""Every vectorised kernel is paired with a scalar oracle and a parity test.

The kernel layer's contract (DESIGN.md §8) is bit identity with the
scalar code each kernel replaced, pinned by ``tests/test_batch_parity.py``.
That contract is only as good as its coverage, so each kernel module
declares ``KERNEL_ORACLES`` — every public function mapped to the dotted
path of its scalar reference — and these tests hold every kernel module
to it: each public function is mapped (the cache helpers named in
:data:`NOT_KERNELS` excepted), each oracle path imports and resolves to
a real object, and each kernel is exercised by name in the parity tests.
``TestOracleChecker`` pins the checker itself on synthetic modules, so a
broken checker cannot pass the real tree vacuously.
"""

import ast
import importlib
import inspect
import re
import textwrap
import types
from pathlib import Path

import pytest

#: Modules bound by the kernel/oracle pairing contract.
KERNEL_MODULES = (
    "repro.core.grid_eval",
    "repro.execution.kernels",
    "repro.execution.batch_replay",
    "repro.market.correlated",
)

#: Public functions of kernel modules that are plumbing, not kernels.
NOT_KERNELS = {
    "repro.execution.kernels": frozenset({"clear_table_cache", "table_cache_size"}),
}

TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = TESTS_DIR.parent / "src"
PARITY_TESTS = TESTS_DIR / "test_batch_parity.py"


def resolve(path: str):
    """The object a dotted ``path`` names: the longest importable module
    prefix, then attribute lookups for the rest (classes, methods)."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(f"no importable module prefix in {path!r}")


def public_functions(module) -> set:
    return {
        name
        for name, fn in inspect.getmembers(module, inspect.isfunction)
        if fn.__module__ == module.__name__ and not name.startswith("_")
    }


def oracle_problems(module, parity_src: str, not_kernels=frozenset()) -> list:
    """Everything wrong with ``module``'s kernel/oracle pairing."""
    oracles = getattr(module, "KERNEL_ORACLES", None)
    if not isinstance(oracles, dict):
        return [f"{module.__name__} declares no KERNEL_ORACLES dict"]
    problems = []
    public = public_functions(module)
    for name in sorted(public - set(oracles) - set(not_kernels)):
        problems.append(f"public function {name}() has no scalar oracle")
    for name, path in sorted(oracles.items()):
        if name not in public:
            problems.append(f"KERNEL_ORACLES maps {name!r}, not a public function")
            continue
        try:
            resolve(path)
        except (ImportError, AttributeError) as exc:
            problems.append(f"oracle {path!r} of {name}() does not resolve: {exc}")
        if not re.search(rf"\b{re.escape(name)}\b", parity_src):
            problems.append(f"kernel {name}() never appears in the parity tests")
    return problems


class TestRealKernels:
    @pytest.mark.parametrize("module_name", KERNEL_MODULES)
    def test_kernel_module_pairing_is_sound(self, module_name):
        module = importlib.import_module(module_name)
        parity_src = PARITY_TESTS.read_text(encoding="utf-8")
        assert oracle_problems(
            module, parity_src, NOT_KERNELS.get(module_name, frozenset())
        ) == []

    def test_not_kernels_names_exist(self):
        for module_name, names in NOT_KERNELS.items():
            module = importlib.import_module(module_name)
            assert names <= public_functions(module), module_name

    def test_every_oracle_declaring_module_is_listed(self):
        declaring = set()
        for path in sorted((SRC_DIR / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "KERNEL_ORACLES"
                    for t in node.targets
                ):
                    rel = path.relative_to(SRC_DIR).with_suffix("")
                    declaring.add(".".join(rel.parts))
        assert declaring == set(KERNEL_MODULES)


PARITY_STUB = """
def test_fast_sum_matches_scalar():
    assert fast_sum([1.0]) == 1.0
"""


def fake_module(source: str) -> types.ModuleType:
    module = types.ModuleType("fake_kernels")
    exec(textwrap.dedent(source), module.__dict__)
    return module


class TestOracleChecker:
    def test_missing_kernel_oracles_dict(self):
        module = fake_module("def fast_sum(xs):\n    return sum(xs)\n")
        problems = oracle_problems(module, PARITY_STUB)
        assert len(problems) == 1 and "KERNEL_ORACLES" in problems[0]

    def test_unmapped_public_function_flagged(self):
        module = fake_module(
            """
            KERNEL_ORACLES = {"fast_sum": "repro.core.ckpt_math.total_wall"}

            def fast_sum(xs):
                return sum(xs)

            def fast_prod(xs):
                return 1
            """
        )
        problems = oracle_problems(module, PARITY_STUB)
        assert len(problems) == 1 and "fast_prod" in problems[0]

    def test_missing_parity_test_flagged(self):
        module = fake_module(
            """
            KERNEL_ORACLES = {"fast_other": "repro.core.ckpt_math.total_wall"}

            def fast_other(xs):
                return xs
            """
        )
        problems = oracle_problems(module, PARITY_STUB)
        assert len(problems) == 1 and "parity tests" in problems[0]

    def test_stale_oracle_entry_flagged(self):
        module = fake_module(
            """
            KERNEL_ORACLES = {"fast_sum": "repro.core.ckpt_math.total_wall",
                              "gone": "repro.core.ckpt_math.total_wall"}

            def fast_sum(xs):
                return sum(xs)
            """
        )
        problems = oracle_problems(module, PARITY_STUB)
        assert len(problems) == 1 and "gone" in problems[0]

    def test_unresolvable_oracle_flagged(self):
        for path in (
            "repro.core.ckpt_math.no_such_function",
            "repro.no_such_module.slow_sum",
        ):
            module = fake_module(
                f"""
                KERNEL_ORACLES = {{"fast_sum": "{path}"}}

                def fast_sum(xs):
                    return sum(xs)
                """
            )
            problems = oracle_problems(module, PARITY_STUB)
            assert len(problems) == 1 and "does not resolve" in problems[0]

    def test_paired_kernel_is_clean(self):
        module = fake_module(
            """
            KERNEL_ORACLES = {
                "fast_sum": "repro.core.two_level.TwoLevelOptimizer._subset_bound",
            }

            def fast_sum(xs):
                return sum(xs)

            def _helper(xs):
                return xs
            """
        )
        assert oracle_problems(module, PARITY_STUB) == []

    def test_allowlisted_cache_helper(self):
        module = fake_module(
            """
            KERNEL_ORACLES = {"fast_sum": "repro.core.ckpt_math.total_wall"}

            def fast_sum(xs):
                return sum(xs)

            def cache_size():
                return 0
            """
        )
        assert len(oracle_problems(module, PARITY_STUB)) == 1
        assert oracle_problems(
            module, PARITY_STUB, frozenset({"cache_size"})
        ) == []
