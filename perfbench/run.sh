#!/usr/bin/env bash
# Builds `repro` and the benchmark runner from this source tree, then runs
# the runner. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-hierarchy --seed 1 --seconds 30 --trace 0
#
# Build progress goes to stderr; the last line of stdout is the result.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/dune || ! -d lib ]]; then
  echo "perfbench: run from the root of the repro source tree" >&2
  exit 2
fi

# a non-login shell may lack the opam switch on PATH
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"

dune build --root . --cache=disabled --display=quiet \
  ./bin/repro.exe ./perfbench/perfbench.exe >&2

exec ./_build/default/perfbench/perfbench.exe \
  --repro ./_build/default/bin/repro.exe "$@"
