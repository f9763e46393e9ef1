"""Tests for reprolint: R001 on worker-job fixtures, SARIF descriptors,
and the real-code meta-tests of every rule.

Each meta-test copies the *real* ``src/repro`` tree, applies one
realistic mutation that the tier-1 suite (outside these reprolint
files) does not catch, and asserts the rule that justifies itself by
that catch fires on the exact line (DESIGN.md §9): the linter guards
the code, so the tests guard the linter against the code drifting out
from under it.
"""

import json
import re
import shutil
import textwrap
from io import StringIO
from pathlib import Path

from repro.analysis import Baseline, get_rules, run_lint
from repro.analysis.reporters import report_sarif

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"


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


#: The pool-side caller a worker job ships with.  R001 is per file, so it
#: judges the job module the same with or without it.
DRIVER = """
    from repro.execution.jobs import job

    def run(pool, cells):
        futures = [pool.submit(job, 0, cell) for cell in cells]
        return [f.result() for f in futures]
    """


# ----------------------------------------------------------------------
# R001 on worker-job fixtures (the former R012 cases a file-scope rule
# still covers: worker jobs in a seeded package)
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
        # Outside the seeded packages R001 does not look at all.
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
# SARIF descriptor metadata
# ----------------------------------------------------------------------
def _design_section_anchor(number: int) -> str:
    """The GitHub anchor of DESIGN.md's ``## <number>.`` heading:
    lowercased, punctuation other than ``-``/``_`` dropped, spaces
    turned into hyphens."""
    text = (REPO_ROOT / "DESIGN.md").read_text()
    (heading,) = re.findall(rf"^## ({number}\..*)$", text, flags=re.M)
    slug = re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")
    return f"DESIGN.md#{slug}"


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
            # Every rule is documented in DESIGN.md §9.
            assert desc["helpUri"] == _design_section_anchor(9)
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "R001" for r in results)


# ----------------------------------------------------------------------
# Meta: break the real code, watch the rule catch it
# ----------------------------------------------------------------------
class TestMetaRealCode:
    """Copy real modules into a tempdir, mutate one invariant, assert
    the matching rule fires on the mutated line.  The ``assert old in
    text`` guards keep these honest: if the real code is refactored the
    test fails loudly instead of silently mutating nothing.

    Every mutation below leaves the tier-1 suite outside the reprolint
    files green (the verdict table in CHANGES.md records the run), so
    each test is the catch that keeps its rule in the registry."""

    #: Package-relative sources of the unmutated-copy check.
    MODULES = (
        "execution/pool.py",
        "execution/montecarlo.py",
        "execution/batch_replay.py",
        "execution/kernels.py",
        "backtest/harness.py",
    )

    def _copy_execution(self, tmp_path):
        paths = []
        for rel in self.MODULES:
            dest = tmp_path / "src" / "repro" / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text((PACKAGE / rel).read_text())
            paths.append(dest)
        return paths

    def _mutate_tree(self, tmp_path, rel, old, new, select):
        """Lint a copy of the whole ``repro`` package with one edit to
        ``rel``; returns the result and the mutated text."""
        root = tmp_path / "src" / "repro"
        shutil.copytree(
            PACKAGE, root, ignore=shutil.ignore_patterns("__pycache__")
        )
        text = (root / rel).read_text()
        assert old in text, f"{rel}: mutation anchor gone: {old!r}"
        text = text.replace(old, new, 1)
        (root / rel).write_text(text)
        result = run_lint(
            [tmp_path / "src"], root=tmp_path, rules=get_rules(select),
            baseline=Baseline.load(REPO_ROOT / "reprolint_baseline.json"),
        )
        return result, text

    @staticmethod
    def _line_of(text, needle):
        for i, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return i
        raise AssertionError(f"{needle!r} not found")

    def _sites(self, result):
        return sorted((f.rule, f.path, f.line) for f in result.findings)

    def test_unmutated_copies_are_clean(self, tmp_path):
        paths = self._copy_execution(tmp_path)
        result = run_lint(
            paths, root=tmp_path, rules=get_rules(["R001", "R002"])
        )
        assert result.findings == []

    def test_unseeded_experiment_generator_fires_r001(self, tmp_path):
        # FIG8's risky-market generator loses its seed: the figure
        # changes run to run, and no tier-1 test compares two runs.
        rel = "experiments/fig8_fault_tolerance.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            'np.random.default_rng(derive_seed(env.seed, f"fig8risky:{key}"))',
            "np.random.default_rng()",
            ["R001"],
        )
        assert self._sites(result) == [(
            "R001", f"src/repro/{rel}",
            self._line_of(text, "np.random.default_rng()"),
        )]
        assert "OS entropy" in result.findings[0].message

    def test_dropped_store_clearer_fires_r002(self, tmp_path):
        # clear_shared_caches() stops dropping the memoised store
        # handles and engine fingerprint; nothing in tier-1 notices.
        rel = "execution/artifacts.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            "register_cache_clearer(clear_store_handles)\n", "",
            ["R002"],
        )
        path = f"src/repro/{rel}"
        assert self._sites(result) == sorted([
            ("R002", path, self._line_of(text, "_FINGERPRINT_MEMO: Dict")),
            ("R002", path, self._line_of(text, "_STORE_MEMO: Dict")),
        ])

    def test_exact_stride_guard_fires_r005(self, tmp_path):
        # ``stride <= 0.0`` narrowed to ``== 0.0`` lets a negative
        # backtest stride through validation.
        rel = "core/windows.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            "    if stride <= 0.0:", "    if stride == 0.0:",
            ["R005"],
        )
        assert self._sites(result) == [(
            "R005", f"src/repro/{rel}",
            self._line_of(text, "if stride == 0.0:"),
        )]

    def test_swallowing_artifact_load_fires_r006(self, tmp_path):
        # Widening the artifact load's handler to ``except Exception``
        # turns a bug in the decoder into a silent cache miss.
        rel = "execution/artifacts.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            "            except (OSError, ValueError, TypeError):",
            "            except Exception:",
            ["R006"],
        )
        assert self._sites(result) == [(
            "R006", f"src/repro/{rel}",
            self._line_of(text, "            except Exception:"),
        )]

    def test_dropped_audit_hook_fires_r007(self, tmp_path):
        # observe_result stops calling the audit: every replayed ledger
        # goes unreconciled, and tier-1 audits only direct calls.
        old = (
            "    if obs.audit_enabled():\n"
            "        obs.audit_run_result(\n"
            "            problem,\n"
            "            decision,\n"
            "            result,\n"
            "            history=history,\n"
            "            billing=billing,\n"
            "            semantics=semantics,\n"
            "            account_storage=account_storage,\n"
            "        )\n"
        )
        result, _ = self._mutate_tree(
            tmp_path, "execution/replay.py", old, "", ["R007"]
        )
        # The findings land where the now-unaudited ledgers are built.
        rel = "src/repro/execution/batch_replay.py"
        lines = [
            i for i, line in enumerate(
                (PACKAGE / "execution/batch_replay.py").read_text()
                .splitlines(), start=1,
            )
            if "ledger = CostLedger()" in line
        ]
        assert len(lines) == 2
        assert self._sites(result) == [("R007", rel, ln) for ln in lines]

    def test_set_fold_in_subset_bound_fires_r015(self, tmp_path):
        # A set comprehension in the subset bound folds a set and drops
        # equal per-group floors; the bound only weakens, so every
        # planned number stays and tier-1 passes.
        rel = "core/two_level.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            "spot_floor = sum(float(t.e_spot.min()) for t in tables)",
            "spot_floor = sum({float(t.e_spot.min()) for t in tables})",
            ["R015"],
        )
        assert self._sites(result) == [(
            "R015", f"src/repro/{rel}",
            self._line_of(text, "spot_floor = sum({"),
        )]

    def test_artifact_load_leaking_oserror_fires_r016(self, tmp_path):
        # ArtifactStore.load stops catching OSError from _read(): an
        # unreadable artifact now crashes a plan instead of missing.
        # The raise sits in the callee, so only the summary sees it.
        rel = "execution/artifacts.py"
        result, text = self._mutate_tree(
            tmp_path, rel,
            "            except (OSError, ValueError, TypeError):",
            "            except (ValueError, TypeError):",
            ["R016"],
        )
        assert self._sites(result) == [(
            "R016", f"src/repro/{rel}",
            self._line_of(text, "found.append(_read(path))"),
        )]
