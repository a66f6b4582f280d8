#!/bin/sh
# Build deptest and the benchmark from this checkout, then run one
# benchmark pass. Run from the checkout root:
#   sh perfbench/run.sh --workload serve-cold --seed 1 --seconds 15 --trace 0
# Build output goes to standard error; the last line of standard output
# is the result JSON. Exits non-zero without a result when the build or
# the run fails.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./bin/deptest_cli.exe ./perfbench/bench.exe ./perfbench/maxrss.exe 1>&2
exec ./_build/default/perfbench/bench.exe --deptest ./_build/default/bin/deptest_cli.exe "$@"
