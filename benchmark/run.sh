#!/bin/sh
# Build the p2psim CLI and the benchmark from the sources of this
# checkout, then run the benchmark:
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to _build/ and run outputs to _bench/, both inside
# the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/p2psim.ml ]; then
  echo "benchmark: no p2psim sources in $(pwd); run it from a checkout of the repository" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi
# keep dune's shared cache out of the home directory
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/p2psim.exe ./benchmark/bench.exe >&2
exec ./_build/default/benchmark/bench.exe "$@"
