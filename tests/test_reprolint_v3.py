"""Tests for reprolint v3: process-safety & determinism analysis.

Covers the escape analysis (boundary sites, worker-reachable closure,
clearer sanctions), rule R010 plus R001's
worker-payload checks with positive and negative fixtures, the
container-element dataflow extension feeding R003/R001, the git-aware ``--changed`` CLI mode, the enriched SARIF
descriptors, and — most importantly — meta-tests that mutate copies of
the *real* ``repro.execution`` modules and assert each rule fires on
the exact broken line: the linter guards the code, so the tests guard
the linter against the code drifting out from under it.
"""

import json
import subprocess
import sys
import textwrap
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis import get_rules, run_lint
from repro.analysis.reporters import report_sarif

REPO_ROOT = Path(__file__).resolve().parents[1]
EXECUTION = REPO_ROOT / "src" / "repro" / "execution"


def lint_project(tmp_path, files, select=None, cache_path=None):
    """Write every ``relpath -> source`` pair and lint them together."""
    paths = []
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
        paths.append(p)
    return run_lint(
        paths, root=tmp_path, rules=get_rules(select), cache_path=cache_path
    )


def rule_ids(result):
    return [f.rule for f in result.findings]


#: A submit boundary: any graph-resolvable callable handed to a
#: poolishly-named receiver's .submit() becomes a worker entry.
DRIVER = """
    from repro.execution.jobs import job

    def run(pool, cells):
        futures = [pool.submit(job, 0, cell) for cell in cells]
        return [f.result() for f in futures]
    """


# ----------------------------------------------------------------------
# R010 — worker-side module-global writes
# ----------------------------------------------------------------------
class TestR010WorkerGlobals:
    def test_flags_worker_side_mutation(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    _SEEN = {}

                    def job(seed, cell):
                        _SEEN[cell] = seed
                        return seed
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R010"],
        )
        assert rule_ids(result) == ["R010"]
        finding = result.findings[0]
        assert finding.path.endswith("jobs.py")
        assert "_SEEN" in finding.message
        assert "worker-reachable" in finding.message

    def test_flags_global_rebind(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    _LAST = None

                    def job(seed, cell):
                        global _LAST
                        _LAST = seed
                        return seed
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R010"],
        )
        assert rule_ids(result) == ["R010"]
        assert "rebinds" in result.findings[0].message

    def test_transitive_callee_is_checked(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    _SEEN = {}

                    def _record(cell):
                        _SEEN[cell] = True

                    def job(seed, cell):
                        _record(cell)
                        return seed
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R010"],
        )
        assert rule_ids(result) == ["R010"]
        assert "_record()" in result.findings[0].message

    def test_registered_clearer_sanctions_the_global(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    from repro.core.two_level import register_cache_clearer

                    _SEEN = {}

                    def job(seed, cell):
                        _SEEN[cell] = seed
                        return seed

                    def clear_seen():
                        _SEEN.clear()

                    register_cache_clearer(clear_seen)
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R010"],
        )
        assert result.findings == []

    def test_unsubmitted_function_is_quiet(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    _SEEN = {}

                    def job(seed, cell):
                        _SEEN[cell] = seed
                        return seed
                    """,
            },
            select=["R010"],
        )
        assert result.findings == []

    def test_local_shadow_is_not_a_global_write(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    _SEEN = {}

                    def job(seed, cell):
                        _SEEN = {}
                        _SEEN[cell] = seed
                        return _SEEN
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R010"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# R001 in worker-reachable code — stateless job payloads (formerly R012)
# ----------------------------------------------------------------------
class TestR012StatelessJobs:
    def test_flags_wall_clock_in_worker(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    import time

                    def job(seed, cell):
                        started = time.time()
                        return (seed, started)
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "wall clock" in result.findings[0].message

    def test_applies_outside_r001_packages(self, tmp_path):
        # Worker reachability is the scope: repro.apps is not one of
        # R001's deterministic packages, but a job that runs there in a
        # worker is still held to the payload contract.
        result = lint_project(
            tmp_path,
            {
                "src/repro/apps/jobs.py": """
                    import time

                    def job(seed, cell):
                        return time.time()
                    """,
                "src/repro/apps/driver.py": """
                    from repro.apps.jobs import job

                    def run(pool, cells):
                        return [pool.submit(job, 0, c) for c in cells]
                    """,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]

    def test_seeded_and_worker_reachable_site_fires_once(self, tmp_path):
        # execution/ is a seeded package and job() is worker-reachable:
        # the clock read that seeds the generator is one site, so it is
        # one finding, attributed to the worker entry.
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    import time

                    import numpy as np

                    def job(seed, cell):
                        return np.random.default_rng(time.time())
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        finding = result.findings[0]
        assert finding.line == 7
        assert "entry repro.execution.jobs.job" in finding.message

    def test_flags_pid_derived_seed(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    import os

                    import numpy as np

                    def job(seed, cell):
                        salt = os.getpid()
                        rng = np.random.default_rng(salt)
                        return rng.uniform()
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "seed" in result.findings[0].message

    def test_flags_seedless_default_rng(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    import numpy as np

                    def job(seed, cell):
                        rng = np.random.default_rng()
                        return rng.uniform()
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "OS entropy" in result.findings[0].message

    def test_payload_unpacked_seed_is_clean(self, tmp_path):
        # The container-element dataflow satellite: args[0] is payload.
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/jobs.py": """
                    import numpy as np

                    def job(args):
                        seed = args[0]
                        rng = np.random.default_rng(seed)
                        return rng.uniform()
                    """,
                "src/repro/execution/driver.py": DRIVER,
            },
            select=["R001"],
        )
        assert result.findings == []

    def test_unsubmitted_function_is_quiet(self, tmp_path):
        # Outside the seeded packages only worker reachability brings a
        # function into scope.
        result = lint_project(
            tmp_path,
            {
                "src/repro/apps/jobs.py": """
                    import time

                    def job(seed, cell):
                        return time.time()
                    """,
            },
            select=["R001"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Container-element dataflow (R003 regression fixtures)
# ----------------------------------------------------------------------
class TestContainerDataflow:
    def test_tuple_literal_subscript_mix(self, tmp_path):
        # Regression: before v3 the engine dropped dimensions at every
        # container literal, so packing money and hours into a tuple
        # laundered the units and this add passed silently.
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, runtime_hours):
                        pair = (cost_usd, runtime_hours)
                        return pair[0] + pair[1]
                    """,
            },
            select=["R003"],
        )
        assert "R003" in rule_ids(result)

    def test_negative_index_alias(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, runtime_hours):
                        pair = (cost_usd, runtime_hours)
                        return pair[-1] + pair[0]
                    """,
            },
            select=["R003"],
        )
        assert "R003" in rule_ids(result)

    def test_dict_literal_subscript_mix(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, runtime_hours):
                        row = {"cost": cost_usd, "span": runtime_hours}
                        return row["cost"] + row["span"]
                    """,
            },
            select=["R003"],
        )
        assert "R003" in rule_ids(result)

    def test_tuple_unpack_binding(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, runtime_hours):
                        a, b = (cost_usd, runtime_hours)
                        return a + b
                    """,
            },
            select=["R003"],
        )
        assert "R003" in rule_ids(result)

    def test_same_dimension_elements_are_clean(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, fee_usd):
                        pair = (cost_usd, fee_usd)
                        return pair[0] + pair[1]
                    """,
            },
            select=["R003"],
        )
        assert result.findings == []

    def test_mutator_invalidates_element_facts(self, tmp_path):
        # After .append the recorded indices may be stale: facts drop to
        # unknown rather than risk a wrong-index false positive.
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(cost_usd, runtime_hours, extras):
                        items = [cost_usd]
                        items.extend(extras)
                        return items[0] + runtime_hours
                    """,
            },
            select=["R003"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# --changed CLI mode
# ----------------------------------------------------------------------
class TestChangedMode:
    def _git(self, cwd, *argv):
        subprocess.run(
            ["git", "-C", str(cwd), *argv],
            check=True, capture_output=True,
        )

    def _run_cli(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            cwd=cwd, capture_output=True, text=True,
            env={
                "PYTHONPATH": str(REPO_ROOT / "src"),
                "PATH": "/usr/bin:/bin:/usr/local/bin",
            },
        )

    @pytest.fixture
    def repo(self, tmp_path):
        clean = "def span_hours(x_hours):\n    return x_hours\n"
        for rel in ("src/repro/core/a.py", "src/repro/core/b.py"):
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(clean)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", ".")
        self._git(
            tmp_path, "-c", "user.email=t@t", "-c", "user.name=t",
            "commit", "-qm", "seed",
        )
        return tmp_path

    def test_reports_only_changed_files(self, repo):
        # v4 contract: the *whole* tree is analysed (files_checked spans
        # it) but only the changed files' findings are reported.
        (repo / "src/repro/core/b.py").write_text("import random\n")
        proc = self._run_cli(
            repo, "src", "--root", str(repo), "--changed", "HEAD",
            "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] == 2
        assert [f["rule"] for f in payload["findings"]] == ["R001"]
        assert payload["findings"][0]["path"] == "src/repro/core/b.py"
        assert proc.returncode == 1

    def test_untracked_files_are_included(self, repo):
        (repo / "src/repro/core/new.py").write_text("import random\n")
        proc = self._run_cli(
            repo, "src", "--root", str(repo), "--changed", "HEAD",
            "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert payload["files_checked"] == 3
        assert [f["rule"] for f in payload["findings"]] == ["R001"]
        assert payload["findings"][0]["path"] == "src/repro/core/new.py"

    def test_nothing_changed_short_circuits(self, repo):
        proc = self._run_cli(
            repo, "src", "--root", str(repo), "--changed", "HEAD",
            "--format", "json",
        )
        assert proc.returncode == 0
        assert "no python files changed" in proc.stdout

    def test_changed_never_writes_the_cache(self, repo):
        (repo / "src/repro/core/b.py").write_text("import random\n")
        self._run_cli(
            repo, "src", "--root", str(repo), "--changed", "HEAD",
            "--cache",
        )
        assert not (repo / ".reprolint_cache.json").exists()

    def test_changed_replays_from_a_warm_cache(self, repo):
        # A whole-tree run warms the cache; --changed may read it.
        self._run_cli(repo, "src", "--root", str(repo), "--cache")
        cache = repo / ".reprolint_cache.json"
        assert cache.exists()
        before = cache.read_text()
        (repo / "src/repro/core/b.py").write_text("import random\n")
        proc = self._run_cli(
            repo, "src", "--root", str(repo), "--changed", "HEAD",
            "--cache", "--format", "json",
        )
        payload = json.loads(proc.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["R001"]
        assert cache.read_text() == before  # replayed, never rewritten


# ----------------------------------------------------------------------
# SARIF descriptor metadata
# ----------------------------------------------------------------------
class TestSarifMetadata:
    def test_descriptors_round_trip(self, tmp_path):
        result = lint_project(
            tmp_path,
            {"src/repro/core/mod.py": "import random\n"},
        )
        rules = get_rules()
        buf = StringIO()
        report_sarif(result, rules, buf, root=tmp_path)
        payload = json.loads(buf.getvalue())
        descriptors = payload["runs"][0]["tool"]["driver"]["rules"]
        by_id = {d["id"]: d for d in descriptors}
        assert set(by_id) >= {r.id for r in rules}
        for rule in rules:
            desc = by_id[rule.id]
            assert desc["fullDescription"]["text"] == rule.description
            assert desc["defaultConfiguration"]["level"] == rule.severity.value
            assert desc["helpUri"]
        # v3 rules link to the escape-analysis design section.
        assert by_id["R010"]["helpUri"].endswith(
            "#13-process-safety-escape-analysis"
        )
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "R001" for r in results)


# ----------------------------------------------------------------------
# Incremental cache with escape rules
# ----------------------------------------------------------------------
class TestEscapeCache:
    def test_warm_replay_with_escape_rules(self, tmp_path):
        files = {
            "src/repro/execution/jobs.py": """
                _SEEN = {}

                def job(seed, cell):
                    _SEEN[cell] = seed
                    return seed
                """,
            "src/repro/execution/driver.py": DRIVER,
        }
        cache = tmp_path / "cache.json"
        cold = lint_project(tmp_path, files, select=["R010"], cache_path=cache)
        assert rule_ids(cold) == ["R010"]
        paths = [tmp_path / rel for rel in files]
        warm = run_lint(
            paths, root=tmp_path, rules=get_rules(["R010"]), cache_path=cache
        )
        assert warm.cache_mode == "full"
        assert rule_ids(warm) == ["R010"]
        assert warm.findings[0].line == cold.findings[0].line


# ----------------------------------------------------------------------
# Meta: break the real execution layer, watch the rule catch it
# ----------------------------------------------------------------------
class TestMetaRealCode:
    """Copy real modules into a tempdir, mutate one invariant, assert
    the matching rule fires on the mutated line.  The ``assert old in
    text`` guards keep these honest: if the real code is refactored the
    test fails loudly instead of silently mutating nothing."""

    #: Package-relative sources; ``mutations`` and the returned texts
    #: are keyed by file name.  The harness keeps ``replay_many`` and
    #: through it the kernel tables worker-reachable (``_run_cell_task``
    #: → ``_run_cell`` → ``replay_many`` → ``replay_batch`` →
    #: ``trace_tables``).
    MODULES = (
        "execution/pool.py",
        "execution/montecarlo.py",
        "execution/batch_replay.py",
        "execution/kernels.py",
        "backtest/harness.py",
    )

    def _copy_execution(self, tmp_path, mutations=None):
        paths = []
        texts = {}
        for rel in self.MODULES:
            name = rel.rsplit("/", 1)[-1]
            text = (EXECUTION.parent / rel).read_text()
            for old, new in (mutations or {}).get(name, ()):
                assert old in text, f"{name}: mutation anchor gone: {old!r}"
                text = text.replace(old, new)
            dest = tmp_path / "src" / "repro" / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text)
            paths.append(dest)
            texts[name] = text
        return paths, texts

    def _lint(self, tmp_path, paths, select):
        return run_lint(paths, root=tmp_path, rules=get_rules(select))

    @staticmethod
    def _line_of(text, needle):
        for i, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return i
        raise AssertionError(f"{needle!r} not found")

    def test_unmutated_copies_are_clean(self, tmp_path):
        paths, _ = self._copy_execution(tmp_path)
        result = self._lint(tmp_path, paths, ["R001", "R010"])
        assert result.findings == []

    def test_wall_clock_in_worker_fires_r012(self, tmp_path):
        anchor = (
            '"""Raw replay results (for distribution plots and variance '
            'studies)."""'
        )
        inserted = "    _t0 = time.time()"
        mutations = {
            "montecarlo.py": [(anchor, anchor + "\n" + inserted)],
        }
        paths, texts = self._copy_execution(tmp_path, mutations)
        result = self._lint(tmp_path, paths, ["R001"])
        assert rule_ids(result) == ["R001"]
        finding = result.findings[0]
        assert finding.path.endswith("montecarlo.py")
        assert finding.line == self._line_of(
            texts["montecarlo.py"], inserted.strip()
        )
        assert "wall clock" in finding.message
        assert "worker-reachable, entry repro.backtest.harness." in (
            finding.message
        )

    def test_dropping_attach_clearer_fires_r010(self, tmp_path):
        # The worker fills the kernel table cache on every replay; the
        # registered clearer is what makes that fill a managed cache.
        mutations = {
            "kernels.py": [(
                "register_cache_clearer(clear_table_cache)\n",
                "",
            )],
        }
        paths, texts = self._copy_execution(tmp_path, mutations)
        result = self._lint(tmp_path, paths, ["R010"])
        assert result.findings, (
            "dropping the clearer must unsanction _TABLE_CACHE"
        )
        assert {f.rule for f in result.findings} == {"R010"}
        assert all(f.path.endswith("kernels.py") for f in result.findings)
        lines = {f.line for f in result.findings}
        assert self._line_of(
            texts["kernels.py"], "_TABLE_CACHE[key] = tables"
        ) in lines
