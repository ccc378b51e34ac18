#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through (see benchmark/README.md):
#
#   bash benchmark/run.sh                          # all five workloads
#   bash benchmark/run.sh --workload serve-mixed --seed 3 --seconds 15 --trace 1
#
# The binary, the Go build cache and every scratch file stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gotmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/gotmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
# The go command keeps its settings and telemetry counters under the
# user's config directory; keep those here too.
export XDG_CONFIG_HOME="$out/config"

(cd "$src" && go build -o "$out/rrs-benchmark" .)
exec "$out/rrs-benchmark" -workdir "$out" "$@"
