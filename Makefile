# Development entry points.  Everything runs from the source tree
# (PYTHONPATH=src), no install required.

PYTHON  ?= python
PYPATH  := PYTHONPATH=src
JOBS    ?=

.PHONY: test fuzz bench perf clean

## Run the tier-1 test suite.
test:
	$(PYPATH) $(PYTHON) -m pytest -q

## Fuzz seeded scenarios through the invariant oracle (tier 2).
## FUZZ_ARGS overrides, e.g. `make fuzz FUZZ_ARGS="--runs 1000 --seed 9"`.
FUZZ_ARGS ?= --runs 200 --seed 1
fuzz:
	$(PYPATH) $(PYTHON) -m repro verify fuzz $(FUZZ_ARGS)

## Run the paper-artefact benchmark suite (uses the on-disk result cache;
## REPRO_NO_CACHE=1 disables it, `make clean` drops it).
bench:
	$(PYPATH) $(PYTHON) -m pytest benchmarks -q -p no:cacheprovider

## Time the four BENCHMARK.json workloads end to end with perfbench; each
## run's stdout goes to .perfbench/<workload>.out, the input of
## `repro history export-trajectory`.  PERF_ARGS adds run.py flags, e.g.
## `make perf PERF_ARGS="--seconds 2"`.
perf:
	mkdir -p .perfbench
	for w in configure-fork hackbench-wake fuzz-verify family-sweep; do \
	  $(PYTHON) perfbench/run.py --workload $$w --trace 0 $(PERF_ARGS) \
	    > .perfbench/$$w.out || exit 1; \
	done

clean:
	rm -rf .repro-cache .pytest_cache
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
