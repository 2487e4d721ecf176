# Convenience lanes.  PYTHONPATH is set per target so `make test` works
# from a clean checkout without an install.
PY := PYTHONPATH=src python

.PHONY: test test-full bench table1

test:        ## fast lane (default pytest config: -m "not slow")
	$(PY) -m pytest -q

test-full:   ## full suite including slow tests
	$(PY) -m pytest -q -m ""

bench:       ## the end-to-end benchmark declared by BENCHMARK.json
	$(PY) perfbench/run.py

table1:      ## the consolidated measured Table 1
	$(PY) -m repro table1
