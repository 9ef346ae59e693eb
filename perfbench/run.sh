#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to stderr, so the
# last line of stdout stays the JSON result.
set -e
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
