#!/usr/bin/env bash
# Builds the end-to-end benchmark from the surrounding checkout and runs
# it with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload warm_read --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's data directories all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -dir "$out/data" "$@"
