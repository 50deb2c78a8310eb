# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-quick csv examples experiments coverage clean

all: build

build:
	dune build @all

test:
	dune runtest

# The repository benchmark (BENCHMARK.json): every workload, one JSON
# result line each (see perfbench/README.md)
bench:
	python3 perfbench/run.py

# The benchmark's own smoke test on reduced instances (about a minute)
bench-quick:
	python3 perfbench/smoke.py

# Dump every experiment table as CSV into ./results
csv:
	mkdir -p results
	dune exec bin/asyncolor_cli.exe -- experiments --csv results

examples:
	dune exec examples/quickstart.exe
	dune exec examples/crash_tolerance.exe
	dune exec examples/adversarial_chain.exe
	dune exec examples/renaming_c3.exe
	dune exec examples/general_graphs.exe
	dune exec examples/model_separation.exe

experiments:
	dune exec bin/asyncolor_cli.exe -- experiments

# Coverage-instrumented test run (requires bisect_ppx; the dune
# instrumentation stanzas are inert without it, so a plain build never
# needs it installed).  Produces _coverage/index.html and enforces the
# per-library floors in coverage-baseline.txt.
coverage:
	@ocamlfind query bisect_ppx >/dev/null 2>&1 || { \
	  echo "coverage: bisect_ppx is not installed (opam install bisect_ppx)"; \
	  echo "coverage: skipping — the build itself never needs it."; \
	  exit 0; } && \
	$(MAKE) coverage-run

.PHONY: coverage-run
coverage-run:
	find . -name '*.coverage' -delete
	dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report html --source-path . -o _coverage \
	  $$(find _build -name '*.coverage')
	bisect-ppx-report summary --per-file \
	  $$(find _build -name '*.coverage') > _coverage/summary.txt
	scripts/check_coverage.sh _coverage/summary.txt coverage-baseline.txt
	@echo "coverage: report in _coverage/index.html"

clean:
	dune clean
