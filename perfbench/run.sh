#!/bin/sh
# Builds the benchmark from source and runs one workload:
#   sh perfbench/run.sh --workload probe_fresh --seed 1 --seconds 30 --trace 0
# Run from the root of a checkout.  Build output stays in _build; the
# benchmark's own scratch files (spans, the update_mix database) go to
# .perfbench-out.  The dune cache is off so nothing is written outside
# the checkout.
set -e
cd "$(dirname "$0")/.."
mkdir -p .perfbench-out
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
OCAML_RUNTIME_EVENTS_DIR=.perfbench-out exec ./_build/default/perfbench/main.exe "$@"
