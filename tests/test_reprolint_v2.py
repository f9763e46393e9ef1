"""Tests for the reprolint v2 whole-program engine (DESIGN.md §9).

Covers the layers PR 5 added on top of the per-file framework: the
project graph (symbols, imports, call edges, reachability), the
unit-dataflow lattice behind R003 — including the regression fixture
proving the v1 suffix-only engine misses what the dataflow engine
flags — the project-scope rule R007 and R009, the content-hash
incremental cache, and the SARIF reporter round-trip.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    ProjectGraph,
    get_rules,
    run_lint,
)
from repro.analysis.dataflow import infer_dim
from repro.analysis.engine import discover, load_unit
from repro.analysis.reporters import report_sarif
from repro.analysis.symbols import module_name_for

REPO_ROOT = Path(__file__).resolve().parents[1]


def write_tree(tmp_path, files):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    return tmp_path


def lint_tree(tmp_path, files, select=None, baseline=None, **kwargs):
    """Write ``files`` under a tmp project and lint the whole src tree."""
    write_tree(tmp_path, files)
    return run_lint(
        [tmp_path / "src"],
        root=tmp_path,
        rules=get_rules(select),
        baseline=baseline,
        **kwargs,
    )


def build_graph(tmp_path, files):
    write_tree(tmp_path, files)
    units = [
        load_unit(p, tmp_path) for p in discover([tmp_path / "src"])
    ]
    return ProjectGraph.build(units)


def rule_ids(result):
    return [f.rule for f in result.findings]


# ----------------------------------------------------------------------
# project graph: symbols, imports, call edges, reachability
# ----------------------------------------------------------------------
class TestProjectGraph:
    def test_module_names(self):
        assert module_name_for("src/repro/core/model.py") == "repro.core.model"
        assert module_name_for("src/repro/obs/__init__.py") == "repro.obs"
        assert module_name_for("tools/thing.py") == "tools.thing"

    def test_cross_module_call_edge_via_import_alias(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/core/a.py": """
                from repro.core import b

                def caller():
                    return b.helper()
            """,
            "src/repro/core/b.py": """
                def helper():
                    return 1
            """,
        })
        key = ("repro.core.a", "caller")
        assert ("repro.core.b", "helper") in graph.call_edges[key]
        assert graph.imports_module("repro.core.a", "repro.core.b")

    def test_relative_import_resolution(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/core/__init__.py": "",
            "src/repro/core/a.py": """
                from .b import helper

                def caller():
                    return helper()
            """,
            "src/repro/core/b.py": """
                def helper():
                    return 1
            """,
        })
        assert ("repro.core.b", "helper") in graph.call_edges[
            ("repro.core.a", "caller")
        ]

    def test_reexport_following(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/pkg/__init__.py": "from .impl import helper\n",
            "src/repro/pkg/impl.py": "def helper():\n    return 1\n",
            "src/repro/use.py": """
                from repro import pkg

                def caller():
                    return pkg.helper()
            """,
        })
        assert ("repro.pkg.impl", "helper") in graph.call_edges[
            ("repro.use", "caller")
        ]

    def test_method_call_through_self(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/core/c.py": """
                class Thing:
                    def a(self):
                        return self.b()

                    def b(self):
                        return 1
            """,
        })
        assert ("repro.core.c", "Thing.b") in graph.call_edges[
            ("repro.core.c", "Thing.a")
        ]

    def test_reaching_is_transitive(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/core/chain.py": """
                def sink():
                    return 0

                def mid():
                    return sink()

                def top():
                    return mid()

                def unrelated():
                    return 2
            """,
        })
        reach = graph.reaching([("repro.core.chain", "sink")])
        assert ("repro.core.chain", "top") in reach
        assert ("repro.core.chain", "mid") in reach
        assert ("repro.core.chain", "unrelated") not in reach

    def test_unresolvable_call_produces_no_edge(self, tmp_path):
        graph = build_graph(tmp_path, {
            "src/repro/core/dyn.py": """
                def caller(fn):
                    return fn()
            """,
        })
        assert graph.call_edges[("repro.core.dyn", "caller")] == set()


# ----------------------------------------------------------------------
# unit dataflow: the lattice behind R003 v2
# ----------------------------------------------------------------------
class TestUnitDataflow:
    def test_v1_regression_fixture_cross_assignment(self, tmp_path):
        """The acceptance fixture: v1's suffix pass is provably silent on
        a drift routed through a neutral intermediate; the dataflow
        engine flags it."""
        source = """
            def total(cost_usd, runtime_hours):
                extra = runtime_hours
                return cost_usd + extra
        """
        # v1 oracle: `extra` is neutral, so the suffix-only engine saw
        # dims (dollars, None) and could not fire.
        import ast as _ast
        tree = _ast.parse(textwrap.dedent(source))
        binop = next(
            n for n in _ast.walk(tree) if isinstance(n, _ast.BinOp)
        )
        assert infer_dim(binop.left) == "dollars"
        assert infer_dim(binop.right) is None  # v1 verdict: no finding
        # v2 verdict: the assignment taught `extra` hours.
        result = lint_tree(
            tmp_path, {"src/repro/core/mod.py": source}, select=["R003"]
        )
        assert rule_ids(result) == ["R003"]
        assert "mixes dollars and hours" in result.findings[0].message

    def test_augassign_through_intermediate(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": """
                def accumulate(total_dollars, runtime_hours):
                    tmp = runtime_hours
                    total_dollars += tmp
                    return total_dollars
            """,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "accumulates hours" in result.findings[0].message

    def test_return_against_function_suffix(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": """
                def total_usd(runtime_hours):
                    return runtime_hours
            """,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "declares dollars by suffix but returns" in (
            result.findings[0].message
        )

    def test_call_return_dim_resolved_through_project_graph(self, tmp_path):
        """The callee has no unit suffix — only its *body* reveals the
        return dimension, and only the graph connects the two files."""
        result = lint_tree(tmp_path, {
            "src/repro/core/a.py": """
                from repro.core import b

                def total(cost_usd):
                    return cost_usd + b.elapsed()
            """,
            "src/repro/core/b.py": """
                def elapsed():
                    start_hours = 1.0
                    return start_hours + 2.0
            """,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "mixes dollars and hours" in result.findings[0].message

    def test_assign_suffix_conflict_carries_rename_fix(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": """
                def f(runtime_hours):
                    wall_s = runtime_hours
                    return wall_s
            """,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "'wall_s' declares seconds" in result.findings[0].message

    def test_rates_and_unknowns_stay_silent(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": """
                def bill(price_per_hour, runtime_hours):
                    cost_usd = price_per_hour * runtime_hours
                    unknown = external()
                    return cost_usd + unknown
            """,
        }, select=["R003"])
        assert result.findings == []

    _MIX_ARG_CALLER = """
        from repro.core import b

        def schedule(runtime_hours):
            budget = runtime_hours
            return b.spend(budget)
    """
    _MIX_ARG_CALLEE = """
        def spend(cost_usd):
            return cost_usd * 1.1
    """

    def test_mix_arg_regression_fixture_cross_module(self, tmp_path):
        """The argument-binding fixture: the caller has no mixed
        arithmetic, no suffix conflict and no return drift — the only
        evidence is an hours-valued variable bound to a dollars-named
        parameter in another module.  The intraprocedural engine is
        provably silent; only the caller→callee binding check fires."""
        from repro.analysis.dataflow import analyze_scope, default_call_resolver
        import ast as _ast

        # Oracle: the same scope without a param_resolver (the engine as
        # it stood before the binding check) produces zero issues.
        tree = _ast.parse(textwrap.dedent(self._MIX_ARG_CALLER))
        fn = next(
            n for n in _ast.walk(tree) if isinstance(n, _ast.FunctionDef)
        )
        silent = analyze_scope(
            fn.body,
            params=("runtime_hours",),
            resolver=default_call_resolver,
        )
        assert silent.issues == []

        result = lint_tree(tmp_path, {
            "src/repro/core/a.py": self._MIX_ARG_CALLER,
            "src/repro/core/b.py": self._MIX_ARG_CALLEE,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "bound to parameter 'cost_usd'" in result.findings[0].message
        assert "hours" in result.findings[0].message

    def test_mix_arg_keyword_binding(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/a.py": """
                from repro.core import b

                def schedule(runtime_hours):
                    return b.spend(cost_usd=runtime_hours)
            """,
            "src/repro/core/b.py": self._MIX_ARG_CALLEE,
        }, select=["R003"])
        assert rule_ids(result) == ["R003"]
        assert "bound to parameter 'cost_usd'" in result.findings[0].message

    def test_mix_arg_star_splat_stops_positional_binding(self, tmp_path):
        """Past a ``*args`` splat the alignment is unknowable — the
        check must stay silent rather than guess."""
        result = lint_tree(tmp_path, {
            "src/repro/core/a.py": """
                from repro.core import b

                def schedule(extras, runtime_hours):
                    return b.combine(*extras, runtime_hours)
            """,
            "src/repro/core/b.py": """
                def combine(cost_usd, budget_usd=0.0):
                    return cost_usd + budget_usd
            """,
        }, select=["R003"])
        assert result.findings == []

    def test_mix_arg_matching_and_unknown_dims_stay_silent(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/a.py": """
                from repro.core import b

                def schedule(cost_usd, mystery):
                    b.spend(cost_usd)
                    b.spend(mystery)
            """,
            "src/repro/core/b.py": self._MIX_ARG_CALLEE,
        }, select=["R003"])
        assert result.findings == []


# ----------------------------------------------------------------------
# R007 — ledger-audit coverage
# ----------------------------------------------------------------------
_R007_BASE = {
    "src/repro/obs/__init__.py": """
        def audit_run_result(result):
            return result
    """,
    "src/repro/cloud/billing.py": """
        class CostLedger:
            pass
    """,
    "src/repro/core/exec_good.py": """
        from repro.cloud.billing import CostLedger
        from repro import obs

        def observe(result):
            return obs.audit_run_result(result)

        def run_good():
            ledger = CostLedger()
            return observe(ledger)
    """,
}


class TestR007LedgerAudit:
    def test_unaudited_construction_flagged(self, tmp_path):
        files = dict(_R007_BASE)
        files["src/repro/core/exec_bad.py"] = """
            from repro.cloud.billing import CostLedger

            def run_bad():
                ledger = CostLedger()
                return ledger
        """
        result = lint_tree(tmp_path, files, select=["R007"])
        assert rule_ids(result) == ["R007"]
        assert result.findings[0].path == "src/repro/core/exec_bad.py"
        assert "run_bad()" in result.findings[0].message

    def test_audited_construction_quiet_even_indirectly(self, tmp_path):
        result = lint_tree(tmp_path, dict(_R007_BASE), select=["R007"])
        assert result.findings == []

    def test_billing_module_and_tests_exempt(self, tmp_path):
        files = dict(_R007_BASE)
        files["src/repro/cloud/billing.py"] = """
            class CostLedger:
                pass

            def model():
                return CostLedger()
        """
        files["src/repro/core/tests/test_x.py"] = """
            from repro.cloud.billing import CostLedger

            def test_build():
                assert CostLedger() is not None
        """
        result = lint_tree(tmp_path, files, select=["R007"])
        assert result.findings == []

    def test_real_tree_has_sites_and_all_are_audited(self):
        """Guards against the rule passing vacuously on src/: it must
        *see* CostLedger constructions there and prove them audited."""
        from repro.analysis.rules.r007_ledger_audit import (
            LedgerAuditCoverage, _EXEMPT_PATH_RE,
        )

        units = [
            load_unit(p, REPO_ROOT)
            for p in discover([REPO_ROOT / "src"])
        ]
        graph = ProjectGraph.build(units)
        rule = LedgerAuditCoverage()
        sites = 0
        for info in graph.functions.values():
            syms = graph.modules.get(info.module)
            if syms is None or _EXEMPT_PATH_RE.search(syms.relpath):
                continue
            sites += len(rule._construction_sites(info.node, syms))
        assert sites >= 2  # batch_replay x2 (on-demand run, spot replay)


# ----------------------------------------------------------------------
# R009 — docstring units vs suffix conventions
# ----------------------------------------------------------------------
class TestR009DocUnits:
    def test_return_field_conflict_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": '''
                def transfer_hours(size):
                    """Transfer time.

                    :returns: wall-clock time in seconds.
                    """
                    return size / 100.0
            ''',
        }, select=["R009"])
        assert rule_ids(result) == ["R009"]
        assert "says it returns seconds" in result.findings[0].message

    def test_summary_phrase_conflict_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": '''
                def runtime_s(n):
                    """Estimated runtime in hours."""
                    return n * 2.0
            ''',
        }, select=["R009"])
        assert rule_ids(result) == ["R009"]

    def test_param_field_conflict_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": '''
                def bill(runtime_hours):
                    """Bill a run.

                    :param runtime_hours: elapsed seconds of compute.
                    """
                    return runtime_hours
            ''',
        }, select=["R009"])
        assert rule_ids(result) == ["R009"]
        assert "runtime_hours" in result.findings[0].message

    def test_agreeing_and_ambiguous_docs_quiet(self, tmp_path):
        result = lint_tree(tmp_path, {
            "src/repro/core/mod.py": '''
                def cost_usd(runtime_hours):
                    """Cost in dollars.

                    :param runtime_hours: elapsed hours of compute.
                    :returns: the bill in dollars.
                    """
                    return runtime_hours * 0.1

                def rate(x):
                    """Dollars per hour conversion (mentions both units)."""
                    return x
            ''',
        }, select=["R009"])
        assert result.findings == []


# ----------------------------------------------------------------------
# incremental cache
# ----------------------------------------------------------------------
_CACHE_FILES = {
    "src/repro/core/a.py": """
        from repro.core import b

        def total(cost_usd):
            return cost_usd + b.elapsed()
    """,
    "src/repro/core/b.py": """
        def elapsed():
            start_hours = 1.0
            return start_hours + 2.0
    """,
    "src/repro/core/c.py": """
        import random
    """,
}


class TestIncrementalCache:
    def test_cold_then_fully_warm_replay(self, tmp_path):
        cache = tmp_path / "cache.json"
        cold = lint_tree(tmp_path, _CACHE_FILES, cache_path=cache)
        assert cold.cache_mode == "cold"
        warm = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(),
            cache_path=cache,
        )
        assert warm.cache_mode == "full"
        assert warm.files_replayed == warm.files_checked == 3
        assert [f.to_json() for f in warm.findings] == [
            f.to_json() for f in cold.findings
        ]

    def test_content_change_invalidates_only_that_file(self, tmp_path):
        cache = tmp_path / "cache.json"
        lint_tree(tmp_path, _CACHE_FILES, cache_path=cache)
        (tmp_path / "src/repro/core/c.py").write_text(
            "import random\nimport random\n"
        )
        partial = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(),
            cache_path=cache,
        )
        assert partial.cache_mode == "partial"
        assert partial.files_replayed == 2  # a.py and b.py replayed
        assert [
            f.rule for f in partial.findings
            if f.path == "src/repro/core/c.py"
        ].count("R001") >= 2  # the new import was actually re-linted

    def test_cross_file_change_recomputes_project_findings(self, tmp_path):
        """a.py is byte-identical, but its R003 finding depends on the
        *callee's* body in b.py — the cache must not replay it."""
        cache = tmp_path / "cache.json"
        first = lint_tree(
            tmp_path, _CACHE_FILES, select=["R003"], cache_path=cache
        )
        assert rule_ids(first) == ["R003"]  # dollars + hours-returning call
        (tmp_path / "src/repro/core/b.py").write_text(textwrap.dedent("""
            def elapsed():
                start_usd = 1.0
                return start_usd + 2.0
        """))
        second = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(["R003"]),
            cache_path=cache,
        )
        assert second.findings == []  # now dollars + dollars: clean

    def test_rule_selection_changes_engine_fingerprint(self, tmp_path):
        cache = tmp_path / "cache.json"
        lint_tree(tmp_path, _CACHE_FILES, select=["R001"], cache_path=cache)
        other = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(["R003"]),
            cache_path=cache,
        )
        assert other.cache_mode == "cold"  # different rules, no replay


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------
class TestSarif:
    def test_round_trip_matches_findings(self, tmp_path):
        baseline = Baseline([BaselineEntry(
            "R001", "src/repro/core/c.py", "import random",
            "kept for the fixture",
        )])
        result = lint_tree(tmp_path, _CACHE_FILES, baseline=baseline)
        buf = io.StringIO()
        report_sarif(result, get_rules(), buf, root=tmp_path)
        doc = json.loads(buf.getvalue())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_index = {
            r["id"]: i
            for i, r in enumerate(run["tool"]["driver"]["rules"])
        }
        assert set(rule_index) >= {"R001", "R003", "R007", "R009"}
        new = [r for r in run["results"] if not r.get("suppressions")]
        suppressed = [r for r in run["results"] if r.get("suppressions")]
        assert len(new) == len(result.findings)
        assert len(suppressed) == len(result.baselined) == 1
        for res, finding in zip(new, result.findings):
            assert res["ruleId"] == finding.rule
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == finding.path
            assert loc["region"]["startLine"] == finding.line
            assert loc["region"]["startColumn"] == finding.col + 1
            assert run["tool"]["driver"]["rules"][res["ruleIndex"]][
                "id"
            ] == finding.rule


# ----------------------------------------------------------------------
# bench artifact
# ----------------------------------------------------------------------
class TestLintBench:
    def test_bench_lint_records_warm_speedup(self):
        doc = json.loads((REPO_ROOT / "BENCH_lint.json").read_text())
        assert doc["suite"] == "lint"
        engine = doc["metrics"]["engine"]
        assert engine["speedup"] >= 3.0, (
            "warm cache replay must be at least 3x faster than a cold "
            f"parse; recorded {engine['speedup']}x"
        )
        assert doc["primary"]["name"] == "engine.warm_s"
