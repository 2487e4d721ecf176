# Convenience lanes.  PYTHONPATH is set per target so `make test` works
# from a clean checkout without an install.
PY := PYTHONPATH=src python

.PHONY: test test-full bench perf-report bench-check bench-quick table1

test:        ## fast lane (default pytest config: -m "not slow")
	$(PY) -m pytest -q

test-full:   ## full suite including slow tests
	$(PY) -m pytest -q -m ""

bench:       ## pytest-benchmark suites only
	$(PY) -m pytest benchmarks -q -m ""

perf-report: ## kernel + messaging perf report -> BENCH_matmul.json
	$(PY) benchmarks/perf_report.py

bench-check: ## fail if a quick perf run regresses >25% vs committed BENCH_matmul.json
	$(PY) benchmarks/bench_check.py

bench-quick: ## gate-sized rows only (kernel_gate/bilinear/boolean/kernel2/kernel3/spanning/faults/serve/netsim) -- the CI fast lane
	$(PY) benchmarks/bench_check.py --gate-only

table1:      ## the consolidated measured Table 1
	$(PY) benchmarks/table1_harness.py
