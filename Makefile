PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint audit bench bench-full experiments quick clean-pyc

test:
	$(PYTHON) -m pytest -x -q

## reprolint static invariants (DESIGN.md §9): fails on any new
## (non-baselined) finding and, with --strict, on any stale baseline
## entry (delete it from the file by hand); reprolint_baseline.json
## grandfathers the documented exact float comparisons and nothing
## else.  Warm reruns replay from the content-hash cache;
## reprolint.sarif feeds CI's inline PR annotations.
lint:
	$(PYTHON) -m repro.analysis src benchmarks --baseline reprolint_baseline.json \
		--cache --sarif reprolint.sarif --strict

## Tier-1 tests with repro.obs audit mode on: every replay/adaptive
## result must reconcile against its cost ledger or the suite fails.
audit:
	REPRO_AUDIT=1 $(PYTHON) -m pytest -x -q

## Perf suite in quick mode; refuses to overwrite BENCH_*.json on a
## >20% regression of the primary metric (pass FORCE=1 to override).
bench:
	$(PYTHON) -m benchmarks.perf --quick $(if $(FORCE),--force,)

bench-full:
	$(PYTHON) -m benchmarks.perf $(if $(FORCE),--force,)

## Remove byte-compiled caches.  A stale __pycache__ can shadow edited
## modules (and silently defeat the engine-fingerprint invalidation of
## the artifact store); none may ever be tracked — CI asserts that.
clean-pyc:
	find . -name __pycache__ -prune -exec rm -rf {} +
	find . -name '*.py[co]' -delete

experiments:
	$(PYTHON) -m repro.experiments.runner

quick:
	$(PYTHON) -m repro.experiments.runner --quick
