"""Monte-Carlo replay throughput benchmark (replays per second).

Replays the planned decisions of a few (app, deadline) cases from many
starting points with the scalar per-start loop (the seed path, kept as
the parity oracle ``tests/oracles/scalar_replay.py``) and with the
batched replay, asserts the results match bit-for-bit (group records
and ledger lines included, checked after timing), and reports the
throughput of both.  The batched time covers the columnar replay; its
per-start result objects are built by the check, untimed.  Single-shot and persistent request semantics
are timed separately: the persistent kernel iterates relaunch rounds
level-by-level, so its speedup profile differs from the single-shot
path and gets its own ``persistent_replays_per_s`` metric.
"""

from __future__ import annotations

import time

from repro.execution.batch_replay import replay_batch
from repro.execution.montecarlo import sample_start_times
from repro.experiments.env import ExperimentEnv
from tests.oracles.scalar_replay import replay_decision

_CASES = [("BT", 1.5), ("LU", 1.05), ("IS", 1.5)]


def _assert_same_runs(seq, batch, semantics: str) -> None:
    """Scalar and batched runs agree field by field, group records and
    ledger lines included (the parity tests' ``assert_runs_equal``).
    Indexing the batch builds its results, so this stays outside the
    timed region."""
    assert len(seq) == len(batch)
    for a, b in zip(seq, batch):
        where = f"batched {semantics} replay diverged from scalar replay"
        assert (a.start_time, a.cost, a.makespan, a.completed_by,
                a.ondemand_hours) == (
            b.start_time, b.cost, b.makespan, b.completed_by, b.ondemand_hours
        ), where
        assert tuple(a.group_records) == tuple(b.group_records), where
        assert a.ledger.items == b.ledger.items, where


def _time_semantics(env, n_starts: int, semantics: str):
    """(replays, scalar seconds, batched seconds) for one semantics."""
    total = 0
    seq_s = 0.0
    batch_s = 0.0
    for app, factor in _CASES:
        problem = env.problem(app, deadline_factor=factor)
        decision = env.sompi_plan(problem).decision
        if not decision.groups:
            continue
        starts = sample_start_times(
            problem, decision, env.history, n_starts,
            env.rng.fresh(f"bench-replay-{app}-{factor}"), t_min=env.train_end,
        )
        t0 = time.perf_counter()
        seq = [
            replay_decision(
                problem, decision, env.history, float(t), semantics=semantics
            )
            for t in starts
        ]
        t1 = time.perf_counter()
        batch = replay_batch(
            problem, decision, env.history, starts, semantics=semantics
        )
        t2 = time.perf_counter()
        _assert_same_runs(seq, batch, semantics)
        total += starts.size
        seq_s += t1 - t0
        batch_s += t2 - t1
    return total, seq_s, batch_s


def run(quick: bool = False) -> dict:
    n_starts = 200 if quick else 1000
    env = ExperimentEnv.paper_default()
    total, seq_s, batch_s = _time_semantics(env, n_starts, "single-shot")
    p_total, p_seq_s, p_batch_s = _time_semantics(env, n_starts, "persistent")

    return {
        "suite": "replay",
        "replays": total + p_total,
        "metrics": {
            "throughput": {
                "sequential_replays_per_s": round(total / seq_s, 1),
                "batched_replays_per_s": round(total / batch_s, 1),
                "seed_s": round(seq_s, 4),
                "optimized_s": round(batch_s, 4),
                "speedup": round(seq_s / batch_s, 2) if batch_s > 0 else None,
            },
            "persistent": {
                "sequential_replays_per_s": round(p_total / p_seq_s, 1),
                "persistent_replays_per_s": round(p_total / p_batch_s, 1),
                "seed_s": round(p_seq_s, 4),
                "optimized_s": round(p_batch_s, 4),
                "speedup": round(p_seq_s / p_batch_s, 2) if p_batch_s > 0 else None,
            },
        },
        "primary": {"name": "throughput.optimized_s", "seconds": batch_s},
    }
