#!/usr/bin/env bash
# Builds the co-simulation benchmark from this checkout's sources and
# runs it with the given arguments, for example:
#
#   bash cosimbench/run.sh --workload dk1-tcp-lockstep --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ at the checkout root, so the first run compiles the
# standard library once and later runs only relink.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/cosimbench" .)
exec "$build/cosimbench" "$@"
