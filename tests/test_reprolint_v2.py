"""Tests for the reprolint v2 whole-program engine (DESIGN.md §9).

Covers the layers PR 5 added on top of the per-file framework: the
project graph (symbols, imports, call edges, reachability), the
project-scope rule R007, the content-hash incremental cache, and the
SARIF reporter round-trip.
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
# incremental cache
# ----------------------------------------------------------------------
_CACHE_FILES = {
    "src/repro/core/a.py": """
        import numpy as np

        def draw():
            return np.random.default_rng()
    """,
    "src/repro/core/b.py": """
        import os

        def stamp():
            return os.getpid()
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
        """a.py is byte-identical, but its R016 finding depends on the
        *callee's* body in b.py — the cache must not replay it."""
        files = {
            "src/repro/core/a.py": '''
                from repro.core import b

                def load(path):
                    """Read the cache, fail-open on a missing file."""
                    return b.probe(path)
            ''',
            "src/repro/core/b.py": """
                def probe(path):
                    with open(path) as fh:
                        return fh.read()
            """,
            "src/repro/core/c.py": "import random\n",
        }
        rules = ["R001", "R016"]
        cache = tmp_path / "cache.json"
        first = lint_tree(tmp_path, files, select=rules, cache_path=cache)
        # The OSError escaping through b.probe(), plus c.py's import.
        assert [(f.rule, f.path) for f in first.findings] == [
            ("R016", "src/repro/core/a.py"),
            ("R001", "src/repro/core/c.py"),
        ]
        (tmp_path / "src/repro/core/b.py").write_text(textwrap.dedent("""
            def probe(path):
                return path
        """))
        second = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(rules),
            cache_path=cache,
        )
        assert second.cache_mode == "partial"  # a.py's file entry replayed
        # probe() no longer opens a file: load() is clean.
        assert [f.path for f in second.findings] == ["src/repro/core/c.py"]

    def test_rule_selection_changes_engine_fingerprint(self, tmp_path):
        cache = tmp_path / "cache.json"
        lint_tree(tmp_path, _CACHE_FILES, select=["R001"], cache_path=cache)
        other = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(["R007"]),
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
        assert set(rule_index) >= {"R001", "R007"}
        assert {f.path for f in result.findings} == {"src/repro/core/a.py"}
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
