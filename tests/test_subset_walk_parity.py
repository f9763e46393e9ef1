"""The size-by-size subset search against the per-subset walk it replaced.

``exhaustive_subset_search`` runs one ``TwoLevelOptimizer.search_size``
call per subset size: one bounds program, a prefilter against the
incumbent held at the start of the size, prefix-product scoring, and a
walk in visiting order.  ``tests/oracles/subset_walk.py`` keeps the
per-subset loop it replaced.  Both must return the same
``SubsetResult`` — every ``Expectation`` field bit-equal — cover the
same ``combos_evaluated``, and re-evaluate the same combos exactly, in
the same order.
"""

import dataclasses
import itertools
import math

import pytest

import repro.core.two_level as two_level
from repro.config import SompiConfig
from repro.core.ondemand_select import select_ondemand_relaxed
from repro.core.subset import exhaustive_subset_search
from repro.core.two_level import (
    SubsetResult,
    TwoLevelOptimizer,
    clear_shared_caches,
)
from repro.experiments.env import ExperimentEnv
from tests.oracles.subset_walk import SubsetWalk
from tests.test_combo_batches import duplicated_table, setup  # noqa: F401

APPS = ("BT", "BTIO")
FACTORS = (1.05, 1.2, 1.5, 2.0)
KAPPAS = (2, 3, 4)


def assert_same_result(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None
    assert got.group_indices == want.group_indices
    assert got.bids == want.bids
    assert got.intervals == want.intervals
    assert got.combos_evaluated == want.combos_evaluated
    for f in dataclasses.fields(want.expectation):
        g, w = getattr(got.expectation, f.name), getattr(want.expectation, f.name)
        assert float(g).hex() == float(w).hex(), f.name


@pytest.fixture
def exact_log(monkeypatch):
    """Every exact re-evaluation, as ``(group tokens, combo)``."""
    log = []
    evaluate = TwoLevelOptimizer._evaluate_exact

    def record(self, tables, combo, outcomes):
        log.append((tuple(t.token for t in tables), combo))
        return evaluate(self, tables, combo, outcomes)

    monkeypatch.setattr(TwoLevelOptimizer, "_evaluate_exact", record)
    return log


def sweep(env, app, tmp_path, exact_log, factors=FACTORS, kappas=KAPPAS):
    """Every (deadline factor, kappa) search of ``app``, size by size and
    per subset, each side from empty caches and a private store."""
    cfg = env.config.with_(artifact_dir=str(tmp_path / app))
    walk = SubsetWalk()
    cases = []
    for side in ("size", "walk"):
        clear_shared_caches()
        for factor in factors:
            problem = env.problem(app, deadline_factor=factor)
            models = env.failure_models(problem)
            _, ondemand = select_ondemand_relaxed(
                problem.ondemand_options, problem.deadline, cfg.slack
            )
            for kappa in kappas:
                opt = TwoLevelOptimizer(problem, models, ondemand, cfg)
                start = len(exact_log)
                if side == "size":
                    result = exhaustive_subset_search(opt, kappa)
                    cases.append([result, opt.combos_evaluated, exact_log[start:]])
                else:
                    result, combos = walk.exhaustive(opt, kappa)
                    cases.append([result, combos, exact_log[start:]])
    clear_shared_caches()
    half = len(cases) // 2
    return cases[:half], cases[half:], walk


@pytest.mark.parametrize("app", APPS)
def test_paper_problems_match_the_per_subset_walk(paper_env, app, tmp_path, exact_log):
    got, want, _walk = sweep(paper_env, app, tmp_path, exact_log)
    for (result, combos, exacts), (ref, ref_combos, ref_exacts) in zip(got, want):
        assert_same_result(result, ref)
        assert combos == ref_combos
        assert exacts == ref_exacts


def test_incumbent_replaced_partway_through_a_size(tmp_path, exact_log):
    """On this market a pair beats the best single group, at position 40
    of the 66 size-2 subsets: the prefilter ran against the size-1
    incumbent, and the walk prunes the rest of the size against the
    new one."""
    env = ExperimentEnv.paper_default(
        seed=7, history_days=21.0, train_days=7.0,
        config=SompiConfig(kappa=3, bid_levels=5),
    )
    got, want, walk = sweep(
        env, "BT", tmp_path, exact_log, factors=(1.5,), kappas=(3,)
    )
    assert walk.replacements[0] == (1, 0) and walk.replacements[-1] == (2, 40)
    (result, combos, exacts), (ref, ref_combos, ref_exacts) = got[0], want[0]
    assert_same_result(result, ref)
    assert combos == ref_combos
    assert exacts == ref_exacts


def test_live_incumbent_prunes_inside_a_size(paper_env, tmp_path, exact_log):
    """A size searched from an incumbent no bound reaches: the prefilter
    keeps every subset, so only the walk's own pruning against each new
    incumbent skips any."""
    cfg = paper_env.config.with_(artifact_dir=str(tmp_path))
    problem = paper_env.problem("BT", deadline_factor=1.5)
    models = paper_env.failure_models(problem)
    _, ondemand = select_ondemand_relaxed(
        problem.ondemand_options, problem.deadline, cfg.slack
    )
    pairs = list(itertools.combinations(range(problem.n_groups), 2))
    unbeatable = SubsetResult(
        (), (), (), two_level.Expectation(*([math.inf] * 7)), 0
    )
    clear_shared_caches()
    opt = TwoLevelOptimizer(problem, models, ondemand, cfg)
    result = opt.search_size(pairs, unbeatable)
    exacts = list(exact_log)
    clear_shared_caches()
    del exact_log[:]
    walk = SubsetWalk()
    ref_opt = TwoLevelOptimizer(problem, models, ondemand, cfg)
    ref = unbeatable
    for pair in pairs:
        found, _total = walk.visit(ref_opt, pair, ref.expectation.cost)
        if found is not None and found.expectation.cost < ref.expectation.cost:
            ref = found
    clear_shared_caches()
    assert walk.pruned > 0
    assert ref is not unbeatable
    assert_same_result(result, ref)
    assert opt.subsets_pruned == walk.pruned
    assert exacts == exact_log


@pytest.mark.parametrize("max_batch", [None, 50])
def test_tied_candidates_match_the_per_subset_walk(
    setup, max_batch, monkeypatch, exact_log
):
    """``TestExactFallbackOrder``'s fixture: every table's rows doubled,
    so candidates tie on cost; single-batch and streamed."""
    problem, models, od, cfg = setup
    if max_batch is not None:
        monkeypatch.setattr(two_level, "_MAX_BATCH", max_batch)

    def tied_optimizer():
        opt = TwoLevelOptimizer(problem, models, od, cfg)
        opt._build_tables()
        for i in range(3):
            opt._tables[i] = duplicated_table(opt._tables[i], f"dup{i}")
        return opt

    clear_shared_caches()
    opt = tied_optimizer()
    result = exhaustive_subset_search(opt, kappa=3)
    exacts = list(exact_log)
    clear_shared_caches()
    del exact_log[:]
    ref, ref_combos = SubsetWalk().exhaustive(tied_optimizer(), kappa=3)
    clear_shared_caches()
    assert ref is not None
    assert_same_result(result, ref)
    assert opt.combos_evaluated == ref_combos
    assert exacts == exact_log
