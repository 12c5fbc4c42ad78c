#!/usr/bin/env bash
# Build the benchmark and the CLI from source, then run one workload:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke]
#
# Exits 2 without a result when the directory is not a full checkout of
# the repository. The tile profile is pinned to the built-in defaults
# (MORPHEUS_TUNE=off), so no stored profile outside the checkout is read,
# and the kernels run on their default single-domain backend.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a checkout of the repository: $(pwd)" >&2
  exit 2
fi
dune build --root . ./perfbench/perfbench.exe ./bin/morpheus_cli.exe >&2 || exit 2
export MORPHEUS_TUNE=off
unset MORPHEUS_THREADS
exec ./_build/default/perfbench/perfbench.exe --bin ./_build/default/bin/morpheus_cli.exe "$@"
