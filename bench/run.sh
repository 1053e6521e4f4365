#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds gridbench from the
# bench module and runs it with the driver's arguments, from the root of
# a checkout. Everything the build writes stays inside the checkout: the
# Go build cache goes under .bench_build/ unless the caller already chose
# one, so the first run compiles (about 40 s cold on 2 cores) and later
# runs link from cache.
#
#   bash bench/run.sh --workload bag16 --seed 7 --seconds 10 --trace 0
#   bash bench/run.sh                  # the whole suite, see bench/README.md
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -d cmd/gridmaster ]; then
  echo "bench/run.sh: $root has no cmd/gridmaster: the benchmark measures this repository's daemons and cannot run without their source" >&2
  exit 3
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="${GOCACHE:-$build/go-cache}"
export GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/bin/gridbench" ./cmd/gridbench)
exec "$build/bin/gridbench" "$@"
