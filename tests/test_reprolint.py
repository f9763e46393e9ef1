"""Tests for the reprolint static-analysis framework (DESIGN.md §9).

Each rule gets fixture snippets exercising a positive (fires), a
negative (stays quiet) and a suppression case; the framework itself is
covered through baseline round-trips, the CLI, and a meta-test that the
linter runs clean over the real ``src/`` tree modulo the checked-in
baseline.
"""

import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    BaselineEntry,
    Severity,
    get_rules,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_snippet(
    tmp_path,
    source,
    relpath="src/repro/core/mod.py",
    select=None,
    extra_files=None,
    baseline=None,
):
    """Write ``source`` at ``relpath`` under a tmp project and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    for rel, text in (extra_files or {}).items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    return run_lint(
        [target],
        root=tmp_path,
        rules=get_rules(select),
        baseline=baseline,
    )


def rule_ids(result):
    return [f.rule for f in result.findings]


def write_baseline(path, findings, reason):
    """Grandfather ``findings`` in a baseline file, as edited by hand."""
    entries = [
        {"rule": f.rule, "path": f.path, "line": f.line, "code": f.code,
         "reason": reason}
        for f in findings
    ]
    path.write_text(json.dumps({"version": 1, "entries": entries}))


# ----------------------------------------------------------------------
# R001 — no unseeded randomness
# ----------------------------------------------------------------------
class TestR001Randomness:
    def test_flags_stdlib_random_import(self, tmp_path):
        result = lint_snippet(tmp_path, "import random\n", select=["R001"])
        assert rule_ids(result) == ["R001"]

    def test_flags_np_random_global(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def jitter(x):
                return x + np.random.normal()
            """,
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]

    def test_flags_wall_clock(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()
            """,
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]

    def test_allows_seeded_generator_plumbing(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def draw(seed: int, rng: np.random.Generator = None):
                rng = rng or np.random.default_rng(np.random.SeedSequence(seed))
                return rng.uniform()
            """,
            select=["R001"],
        )
        assert result.findings == []

    def test_scoped_to_deterministic_packages(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import random\n",
            relpath="src/repro/obs/mod.py",
            select=["R001"],
        )
        assert result.findings == []

    def test_experiments_in_scope(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import random\n",
            relpath="src/repro/experiments/mod.py",
            select=["R001"],
        )
        assert [f.rule for f in result.findings] == ["R001"]

    def test_benchmarks_in_scope(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import random\n",
            relpath="benchmarks/perf/mod.py",
            select=["R001"],
        )
        assert [f.rule for f in result.findings] == ["R001"]

    def test_inline_suppression(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "import random  # reprolint: disable=R001 -- fixture\n",
            select=["R001"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# R002 — registered caches
# ----------------------------------------------------------------------
class TestR002Caches:
    def test_flags_unregistered_module_cache(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "_SCORE_CACHE: dict = {}\n",
            select=["R002"],
        )
        assert rule_ids(result) == ["R002"]

    def test_registered_cache_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from repro.core.two_level import register_cache_clearer

            _SCORE_CACHE: dict = {}

            def clear_score_cache():
                _SCORE_CACHE.clear()

            register_cache_clearer(clear_score_cache)
            """,
            select=["R002"],
        )
        assert result.findings == []

    def test_registry_owner_module_is_exempt(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            _EVAL_CACHE: dict = {}

            def clear_shared_caches():
                _EVAL_CACHE.clear()
            """,
            select=["R002"],
        )
        assert result.findings == []

    def test_flags_unregistered_lru_cache(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from functools import lru_cache

            @lru_cache(maxsize=None)
            def expensive(x):
                return x * x
            """,
            select=["R002"],
        )
        assert rule_ids(result) == ["R002"]

    def test_registered_lru_cache_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from functools import lru_cache

            from repro.core.two_level import register_cache_clearer

            @lru_cache(maxsize=None)
            def expensive(x):
                return x * x

            register_cache_clearer(expensive.cache_clear)
            """,
            select=["R002"],
        )
        assert result.findings == []

    def test_plain_constant_dict_not_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "LABELS = {'a': 1}\n",
            select=["R002"],
        )
        assert result.findings == []

    def test_flags_unregistered_pool_singleton(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "_SHARED_POOL = None\n",
            select=["R002"],
        )
        assert rule_ids(result) == ["R002"]

    def test_flags_unregistered_executor_factory(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            _EXECUTOR = ProcessPoolExecutor(max_workers=2)
            """,
            select=["R002"],
        )
        assert rule_ids(result) == ["R002"]

    def test_pool_singleton_with_registered_closer_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from repro.core.two_level import register_cache_clearer

            _SHARED_POOL = None

            def close_shared_pool():
                global _SHARED_POOL
                pool, _SHARED_POOL = _SHARED_POOL, None
                if pool is not None:
                    pool.close()

            register_cache_clearer(close_shared_pool)
            """,
            select=["R002"],
        )
        assert result.findings == []

    def test_pool_size_constants_not_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "_POOL_MAX = 8\n_POOL_PID = -1\n",
            select=["R002"],
        )
        assert result.findings == []

    def test_real_pool_module_is_covered_and_clean(self):
        """The shipped pool.py singletons are (a) in R002's sights and
        (b) wired through registered clearers — delete the registration
        and the rule must fire."""
        pool_py = REPO_ROOT / "src" / "repro" / "execution" / "pool.py"
        source = pool_py.read_text()
        assert "register_cache_clearer(close_shared_pool)" in source
        result = run_lint(
            [pool_py], root=REPO_ROOT, rules=get_rules(["R002"])
        )
        assert result.findings == []
        broken = source.replace(
            "register_cache_clearer(close_shared_pool)", "", 1
        )
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp) / "src" / "repro" / "execution" / "pool.py"
            target.parent.mkdir(parents=True)
            target.write_text(broken)
            result = run_lint(
                [target], root=Path(tmp), rules=get_rules(["R002"])
            )
        assert "R002" in rule_ids(result)


# ----------------------------------------------------------------------
# R005 — float equality
# ----------------------------------------------------------------------
class TestR005FloatEquality:
    def test_flags_float_literal_equality(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def f(x):\n    return x == 1.5\n",
            select=["R005"],
        )
        assert rule_ids(result) == ["R005"]

    def test_flags_dollar_total_equality(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def f(total_cost, ledger_cost):\n"
            "    return total_cost == ledger_cost\n",
            select=["R005"],
        )
        assert rule_ids(result) == ["R005"]

    def test_int_equality_not_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def f(n):\n    return n == 0\n",
            select=["R005"],
        )
        assert result.findings == []

    def test_tolerant_comparison_not_flagged(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            import math

            def f(a_cost, b_cost):
                return math.isclose(a_cost, b_cost) or a_cost <= 0.0
            """,
            select=["R005"],
        )
        assert result.findings == []

    def test_suppression_with_reason(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def f(g):\n"
            "    return g == 0.0  # reprolint: disable=R005 -- sentinel\n",
            select=["R005"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# R006 — exception policy
# ----------------------------------------------------------------------
class TestR006Exceptions:
    def test_flags_bare_except(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except:
                    return 0
            """,
            select=["R006"],
        )
        assert rule_ids(result) == ["R006"]

    def test_flags_swallowed_exception(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """,
            select=["R006"],
        )
        assert rule_ids(result) == ["R006"]

    def test_reraising_handler_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except Exception as exc:
                    raise ValueError("wrapped") from exc
            """,
            select=["R006"],
        )
        assert result.findings == []

    def test_specific_handler_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            def f():
                try:
                    return 1
                except (KeyError, OSError):
                    return 0
            """,
            select=["R006"],
        )
        assert result.findings == []

    def test_flags_generic_raise(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "def f():\n    raise RuntimeError('boom')\n",
            select=["R006"],
        )
        assert rule_ids(result) == ["R006"]

    def test_library_error_raise_is_clean(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            from repro.errors import ConfigurationError

            def f():
                raise ConfigurationError("bad knob")
            """,
            select=["R006"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Framework: suppressions, baseline, severities, CLI
# ----------------------------------------------------------------------
class TestFramework:
    def test_standalone_comment_suppression_covers_next_line(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            """
            # reprolint: disable=R001 -- fixture needs it
            import random
            """,
            select=["R001"],
        )
        assert result.findings == []

    def test_skip_file_marker(self, tmp_path):
        result = lint_snippet(
            tmp_path,
            "# reprolint: skip-file\nimport random\n",
            select=["R001"],
        )
        assert result.findings == []

    def test_syntax_error_becomes_finding(self, tmp_path):
        result = lint_snippet(tmp_path, "def broken(:\n", select=["R001"])
        assert [f.rule for f in result.findings] == ["R000"]
        assert result.exit_code() == 1

    def test_findings_are_errors_by_default(self, tmp_path):
        result = lint_snippet(tmp_path, "import random\n", select=["R001"])
        assert result.findings[0].severity is Severity.ERROR
        assert result.exit_code() == 1

    def test_baseline_round_trip(self, tmp_path):
        result = lint_snippet(tmp_path, "import random\n", select=["R001"])
        assert len(result.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.findings, "grandfathered")
        reloaded = Baseline.load(baseline_path)
        again = lint_snippet(
            tmp_path, "import random\n", select=["R001"], baseline=reloaded
        )
        assert again.findings == []
        assert len(again.baselined) == 1
        assert again.stale_baseline == []
        assert again.exit_code() == 0

    def test_baseline_survives_line_shift_but_not_code_change(self, tmp_path):
        result = lint_snippet(tmp_path, "import random\n", select=["R001"])
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, result.findings, "grandfathered")
        shifted = lint_snippet(
            tmp_path,
            "X = 1\n\nimport random\n",
            select=["R001"],
            baseline=Baseline.load(baseline_path),
        )
        assert shifted.findings == []
        changed = lint_snippet(
            tmp_path,
            "import random as rnd\n",
            select=["R001"],
            baseline=Baseline.load(baseline_path),
        )
        assert rule_ids(changed) == ["R001"]
        assert len(changed.stale_baseline) == 1

    def test_baseline_requires_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"rule": "R001", "path": "x.py",
                         "code": "import random", "reason": "  "}],
        }))
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Baseline.load(path)

    def test_baseline_multiset_semantics(self, tmp_path):
        source = "import random\nimport random\n"
        result = lint_snippet(tmp_path, source, select=["R001"])
        assert len(result.findings) == 2
        baseline = Baseline(
            [BaselineEntry("R001", result.findings[0].path,
                           "import random", "one of two")]
        )
        partial = lint_snippet(
            tmp_path, source, select=["R001"], baseline=baseline
        )
        assert len(partial.findings) == 1
        assert len(partial.baselined) == 1

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError):
            get_rules(["R999"])

    def test_every_rule_registered_with_description(self):
        rules = get_rules()
        assert [r.id for r in rules] == [
            "R001", "R002", "R005", "R006", "R007", "R015", "R016",
        ]
        for rule in rules:
            assert rule.title and rule.description

    def test_design_rule_table_matches_registry(self):
        """DESIGN.md §9's rule table lists exactly the registered rules."""
        text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        section = text.split("\n### Rule set\n", 1)[1].split("\n### ", 1)[0]
        table_ids = re.findall(r"^\| (R\d{3}) \|", section, re.M)
        assert table_ids == [r.id for r in get_rules()]


class TestCli:
    def run_cli(self, *args, cwd):
        env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=cwd, env=env,
        )

    def test_violation_fails_and_json_reports_it(self, tmp_path):
        target = tmp_path / "src/repro/core/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n")
        proc = self.run_cli("src", "--format", "json", cwd=tmp_path)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["errors"] == 1
        assert payload["findings"][0]["rule"] == "R001"

    def test_clean_tree_exits_zero(self, tmp_path):
        target = tmp_path / "src/repro/core/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("X = 1\n")
        proc = self.run_cli("src", cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules(self, tmp_path):
        proc = self.run_cli("--list-rules", cwd=tmp_path)
        assert proc.returncode == 0
        listed = [
            line.split()[0] for line in proc.stdout.splitlines()
            if line and not line[0].isspace()
        ]
        assert listed == [
            "R001", "R002", "R005", "R006", "R007", "R015", "R016",
        ]


# ----------------------------------------------------------------------
# Meta: the linter runs clean over the real tree modulo the baseline
# ----------------------------------------------------------------------
class TestMetaSelfLint:
    def test_src_is_clean_modulo_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "reprolint_baseline.json")
        result = run_lint(
            [REPO_ROOT / "src"], root=REPO_ROOT, baseline=baseline
        )
        assert result.findings == [], [f.format() for f in result.findings]
        assert result.stale_baseline == [], [
            e.to_json() for e in result.stale_baseline
        ]

    def test_baseline_contains_only_documented_r005(self):
        """ISSUE acceptance: the baseline only grandfathers documented
        exact float comparisons, nothing else."""
        baseline = Baseline.load(REPO_ROOT / "reprolint_baseline.json")
        for entry in baseline.entries:
            assert entry.rule == "R005"
            assert len(entry.reason.split()) >= 5

    def test_fixture_violation_is_caught_against_real_tree(self, tmp_path):
        """End-to-end: introducing a violation into a copy of a real
        module makes the lint non-zero (guards against dead rules)."""
        bad = tmp_path / "src/repro/core/evil.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n\n"
            "from repro.cloud.billing import CostLedger\n\n"
            "def f():\n"
            "    return CostLedger()\n"
        )
        result = run_lint([bad], root=tmp_path, rules=get_rules())
        assert {f.rule for f in result.findings} == {"R001", "R007"}
