#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout
# root.  Everything the build and the run write — Go build cache, binary,
# result and span files, the durable workload's store — stays under the
# checkout (.bench_build/ and benchmark/out/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/e2e" .)
cd "$root"
exec "$build/e2e" "$@"
