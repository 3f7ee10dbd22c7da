#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the build writes (binary, Go build cache) goes to
# .bench_build/ at the root of the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
  echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod)" >&2
  exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -buildvcs=false -o "$build/orion-benchmark" .)
cd "$root"
# The commit goes into the results file; a checkout that is not a git
# repository (nor may borrow a parent directory's) records "unknown".
ORION_BENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null || echo unknown)"
export ORION_BENCH_COMMIT
exec "$build/orion-benchmark" "$@"
