#!/usr/bin/env bash
# Build the benchmark and histotestd from this source tree, then run one
# benchmark workload.  Arguments go straight to the benchmark:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository.  Build output goes to .bench_build
# (dune's --build-dir); build logs go to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -u
if [ ! -f dune-project ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the repository root (no dune-project here)" >&2
  exit 2
fi
if ! dune build --root . --build-dir .bench_build --display quiet \
     ./perfbench/perfbench.exe ./bin/histotestd.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec .bench_build/default/perfbench/perfbench.exe "$@"
