#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build
# writes stays inside the checkout: the Go build cache, and the go
# command's local telemetry counters, which follow XDG_CONFIG_HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The benchmark is package repro/benchmark of the module at the root; without
# that module there is nothing to measure, and go must not go looking for a
# go.mod further up.
[ -f go.mod ] || { echo "benchmark/run.sh: no go.mod in $root: not a checkout of the repository" >&2; exit 1; }
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$root/.bench_build/config" go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
