"""Tracked performance benchmarks for the plan→evaluate pipeline.

Run with ``make bench`` or ``PYTHONPATH=src python -m benchmarks.perf``.

Three suites, each emitting one JSON file at the repository root so the
perf trajectory is tracked across PRs:

* :mod:`.planning` → ``BENCH_planning.json`` — failure-model fitting,
  per-group table construction, the two-level subset search, and one
  full quick experiment, timed from an empty store (cold boot), from a
  warm store with memory cleared (cold disk, the guarded one), and
  fully warm.
* :mod:`.replay` → ``BENCH_replay.json`` — Monte-Carlo replay
  throughput (replays/sec), scalar loop vs batched replay, for both
  single-shot and persistent request semantics.
* :mod:`.market` → ``BENCH_market.json`` — trace-generation throughput
  (grid steps/sec), scalar reference kernel vs event-level sampler.

The writer refuses to overwrite an existing file when a primary metric
regressed by more than 20% unless ``--force`` is given (see
``benchmarks.perf.__main__``), so an accidental slowdown fails loudly
in CI instead of silently rewriting the baseline.
"""
