#!/usr/bin/env bash
# Builds the heartshield benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload exchange --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temp files) stays under
# .bench_build at the repository root, so the run reads and writes nothing
# outside the checkout. The build log goes to stderr; the benchmark's last
# stdout line is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
mkdir -p "$GOCACHE" "$GOTMPDIR" "$GOPATH" "$XDG_CONFIG_HOME"

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
