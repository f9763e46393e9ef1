"""Tests for reprolint's interprocedural summaries and the rules on top.

Covers the fixpoint summary engine (SCC convergence on call cycles,
per-SCC cache replay), R001's per-file generator checks (the cases of
the former R014 that survive without seed-lineage tracking), R015 and
R016 with positive and negative fixtures, and meta-tests that mutate
copies of the *real* ``repro.execution`` / ``repro.backtest`` modules
and assert each rule fires on the exact broken line.
"""

import textwrap
from pathlib import Path

from repro.analysis import get_rules, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
EXECUTION = REPO_ROOT / "src" / "repro" / "execution"
BACKTEST = REPO_ROOT / "src" / "repro" / "backtest"


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


# ----------------------------------------------------------------------
# Summary fixpoint: SCC convergence and per-SCC cache replay
# ----------------------------------------------------------------------
class TestSummaryFixpoint:
    def test_three_cycle_scc_converges(self, tmp_path):
        # hop_a -> hop_b -> hop_c -> hop_a: the SCC has no topological
        # order, so the (monotone) raise facts iterate within the
        # component until every member knows open() can raise — only
        # then does the fail-open load() see the OSError escape.
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/cycle.py": '''
                    def hop_a(path, n):
                        if n == 0:
                            return open(path)
                        return hop_b(path, n - 1)

                    def hop_b(path, n):
                        return hop_c(path, n)

                    def hop_c(path, n):
                        return hop_a(path, n)

                    def load(path):
                        """Open the cache, fail-open on a missing file."""
                        return hop_b(path, 3)
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]
        assert "load() documents a fail-open contract" in (
            result.findings[0].message
        )
        stats = result.summary_stats
        assert stats is not None
        assert stats["recomputed"] == 4
        # hop_a/hop_b/hop_c collapse into one SCC; load is its own.
        assert stats["sccs"] >= 2

    def test_warm_run_replays_unchanged_sccs(self, tmp_path):
        files = {
            "src/repro/core/a.py": """
                def one(x):
                    return x

                def two(x):
                    return one(x)
                """,
            "src/repro/core/b.py": """
                from repro.core.a import two

                def total(x):
                    return two(x)
                """,
        }
        cache = tmp_path / "cache.json"
        cold = lint_project(tmp_path, files, select=["R016"], cache_path=cache)
        assert cold.summary_stats["recomputed"] == 3
        assert cold.summary_stats["replayed"] == 0
        # Edit only b: a's SCCs replay from the cache, b's recompute.
        b = tmp_path / "src/repro/core/b.py"
        b.write_text(b.read_text() + "\n# touched\n")
        warm = run_lint(
            [tmp_path / rel for rel in files],
            root=tmp_path,
            rules=get_rules(["R016"]),
            cache_path=cache,
        )
        assert warm.summary_stats["replayed"] == 2
        assert warm.summary_stats["recomputed"] == 1


# ----------------------------------------------------------------------
# R001 generator checks (formerly R014)
# ----------------------------------------------------------------------
class TestR014RngLineage:
    def test_naked_default_rng(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import numpy as np

                    def draw():
                        return np.random.default_rng()
                    """,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "in draw()" in result.findings[0].message

    def test_explicit_seed_through_chain_is_clean(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import numpy as np

                    def _derive(seed):
                        return np.random.default_rng(seed)

                    def make_gen(seed):
                        return _derive(seed)

                    def run(root_seed):
                        return make_gen(root_seed)
                    """,
            },
            select=["R001"],
        )
        assert result.findings == []

    def test_param_seeded_instance_field_is_clean(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import numpy as np

                    class Sampler:
                        def __init__(self, seed):
                            self._seed = seed

                        def gen(self):
                            return np.random.default_rng(self._seed)
                    """,
            },
            select=["R001"],
        )
        assert result.findings == []

    def test_module_level_generator_state(self, tmp_path):
        # Even a *seeded* module-level generator is flagged: it is a
        # hidden stream whose consumption order crosses importers.
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import numpy as np

                    _RNG = np.random.default_rng(1234)
                    """,
            },
            select=["R001"],
        )
        assert rule_ids(result) == ["R001"]
        assert "hidden stream" in result.findings[0].message

    def test_outside_seeded_packages_is_quiet(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/plots/mod.py": """
                    import numpy as np

                    def draw():
                        return np.random.default_rng()
                    """,
            },
            select=["R001"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# R015 — order-sensitive float reductions
# ----------------------------------------------------------------------
class TestR015OrderedReduction:
    def test_sum_over_set_comprehension(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        return sum({c for c in costs_usd})
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]
        finding = result.findings[0]
        assert "not associative" in finding.message

    def test_sum_over_bound_set(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        unique = set(costs_usd)
                        return sum(unique)
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]

    def test_sum_over_filesystem_enumeration(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import os

                    def total(d):
                        return sum(os.listdir(d))
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]
        assert "OS-defined" in result.findings[0].message

    def test_sum_over_dict_view(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        by_key = {k: c for k, c in enumerate(costs_usd)}
                        return sum(by_key.values())
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]
        assert "insertion order" in result.findings[0].message

    def test_reduce_second_argument(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    from functools import reduce
                    from operator import add

                    def total(costs_usd):
                        return reduce(add, set(costs_usd))
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]

    def test_sorted_clears_the_fact(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        unique = sorted(set(costs_usd))
                        return sum(unique) + sum(sorted({c for c in costs_usd}))
                    """,
            },
            select=["R015"],
        )
        assert result.findings == []

    def test_list_freezes_but_does_not_launder(self, tmp_path):
        # list(...) pins the *current* nondeterministic order; only
        # sorted(...) makes the fold order reproducible.
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        return sum(list(set(costs_usd)))
                    """,
            },
            select=["R015"],
        )
        assert rule_ids(result) == ["R015"]

    def test_fsum_is_exempt(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    import math

                    def total(costs_usd):
                        return math.fsum({c for c in costs_usd})
                    """,
            },
            select=["R015"],
        )
        assert result.findings == []

    def test_augassign_invalidates(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd, extras):
                        unique = set(costs_usd)
                        unique |= extras
                        return sum(unique)
                    """,
            },
            select=["R015"],
        )
        assert result.findings == []

    def test_plain_list_is_clean(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/core/mod.py": """
                    def total(costs_usd):
                        return sum(costs_usd)
                    """,
            },
            select=["R015"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# R016 — fail-open contracts
# ----------------------------------------------------------------------
class TestR016FailOpen:
    def test_unguarded_io_in_marked_function(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def load(path):
                        """Read the cache, fail-open on a missing file."""
                        with open(path) as fh:
                            return fh.read()
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]
        finding = result.findings[0]
        assert "load() documents a fail-open contract" in finding.message
        assert "OSError" in finding.message

    def test_guarded_io_is_clean(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def load(path):
                        """Read the cache, fail-open on a missing file."""
                        try:
                            with open(path) as fh:
                                return fh.read()
                        except OSError:
                            return None
                    ''',
            },
            select=["R016"],
        )
        assert result.findings == []

    def test_narrow_handler_still_leaks(self, tmp_path):
        # except FileNotFoundError does not prove the general OSError
        # (PermissionError, a torn mount) cannot escape.
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def load(path):
                        """Read the cache, fail-open on a missing file."""
                        try:
                            with open(path) as fh:
                                return fh.read()
                        except FileNotFoundError:
                            return None
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]

    def test_bare_reraise_leaks(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def load(path):
                        """Read the cache, fail-open on a missing file."""
                        try:
                            with open(path) as fh:
                                return fh.read()
                        except OSError:
                            raise
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]
        assert "bare raise" in result.findings[0].message

    def test_callee_raise_crosses_function_hop(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def _probe(path):
                        with open(path) as fh:
                            return fh.read()

                    def load(path):
                        """Read the cache, fail-open on a missing file."""
                        return _probe(path)
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]
        assert "_probe" in result.findings[0].message

    def test_worker_raise_surfaces_at_the_gather(self, tmp_path):
        # The submitted callable's escaping OSError resurfaces in the
        # parent when results are gathered: the submit site is flagged.
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    from multiprocessing.shared_memory import SharedMemory

                    def _job(name):
                        shm = SharedMemory(name=name)
                        return bytes(shm.buf)

                    def gather(pool, names):
                        """Ship blocks by name; fail-open on a lost segment."""
                        futures = [pool.submit(_job, n) for n in names]
                        return [f.result() for f in futures]
                    ''',
            },
            select=["R016"],
        )
        assert rule_ids(result) == ["R016"]

    def test_unmarked_function_is_quiet(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "src/repro/execution/mod.py": '''
                    def load(path):
                        """Read the cache (caller handles errors)."""
                        with open(path) as fh:
                            return fh.read()
                    ''',
            },
            select=["R016"],
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# Meta: break the real product code, watch the v4 rules catch it
# ----------------------------------------------------------------------
class TestMetaRealCode:
    """Copy real modules into a tempdir, mutate one invariant, assert the
    matching rule fires on the mutated line.  The ``assert old in text``
    guards keep these honest: if the real code is refactored the test
    fails loudly instead of silently mutating nothing."""

    MODULES = {
        "src/repro/execution/pool.py": EXECUTION / "pool.py",
        "src/repro/execution/artifacts.py": EXECUTION / "artifacts.py",
        "src/repro/execution/montecarlo.py": EXECUTION / "montecarlo.py",
        "src/repro/backtest/harness.py": BACKTEST / "harness.py",
    }

    def _copy(self, tmp_path, mutations=None):
        paths = []
        texts = {}
        for rel, src in self.MODULES.items():
            text = src.read_text()
            for old, new in (mutations or {}).get(rel, ()):
                assert old in text, f"{rel}: mutation anchor gone: {old!r}"
                text = text.replace(old, new, 1)
            dest = tmp_path / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(text)
            paths.append(dest)
            texts[rel] = text
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
        paths, _ = self._copy(tmp_path)
        result = self._lint(tmp_path, paths, ["R001", "R015", "R016"])
        assert result.findings == []

    def test_narrowing_artifact_walk_fires_r016(self, tmp_path):
        # The artifact store's directory walk (R016's motivating bug: a
        # stat racing a concurrent eviction): catching only the
        # FileNotFoundError subclass leaves the general OSError escaping.
        rel = "src/repro/execution/artifacts.py"
        old = (
            "                st = path.stat()\n"
            "            except OSError:\n"
        )
        mutations = {
            rel: [(old, old.replace("OSError", "FileNotFoundError"))],
        }
        paths, texts = self._copy(tmp_path, mutations)
        result = self._lint(tmp_path, paths, ["R016"])
        assert result.findings, "narrowed artifact walk must fire R016"
        assert {f.rule for f in result.findings} == {"R016"}
        assert all(f.path == rel for f in result.findings)
        assert any(
            "_entries() documents a fail-open contract" in f.message
            for f in result.findings
        )
        lines = {f.line for f in result.findings}
        assert self._line_of(texts[rel], "st = path.stat()") in lines

    def test_module_level_generator_fires_r014(self, tmp_path):
        rel = "src/repro/execution/montecarlo.py"
        anchor = "from .batch_replay import ReplayBatch, replay_batch"
        inserted = "_FALLBACK_RNG = np.random.default_rng()"
        mutations = {rel: [(anchor, anchor + "\n\n" + inserted)]}
        paths, texts = self._copy(tmp_path, mutations)
        result = self._lint(tmp_path, paths, ["R001"])
        assert result.findings, "module-level generator must fire R001"
        assert {f.rule for f in result.findings} == {"R001"}
        assert self._line_of(texts[rel], inserted) in {
            f.line for f in result.findings
        }

    def test_set_fold_fires_r015_with_fix(self, tmp_path):
        rel = "src/repro/execution/montecarlo.py"
        anchor = '    metrics.inc("mc.samples", n_samples)'
        inserted = "    _spread = sum({float(x) for x in (deadline, n_samples)})"
        mutations = {rel: [(anchor, anchor + "\n" + inserted)]}
        paths, texts = self._copy(tmp_path, mutations)
        result = self._lint(tmp_path, paths, ["R015"])
        assert rule_ids(result) == ["R015"]
        finding = result.findings[0]
        assert finding.path == rel
        assert finding.line == self._line_of(texts[rel], inserted.strip())
