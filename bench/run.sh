#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build writes
# (binary and Go build cache) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
