#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ at the root of the checkout (build cache included, so
# nothing is written outside the checkout) and runs it with the arguments
# given. A warm rebuild is a no-op that costs well under a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(cd "$here/../.." && pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/e2e" .)
exec "$build/e2e" -out "$here/out" "$@"
