#!/usr/bin/env bash
# Builds and runs the swbench benchmark from this checkout, keeping every
# build output and temporary file under .bench_build/ at the repository
# root. Arguments are passed to swbench, e.g.
#
#   bash bench/run.sh --workload s7-narrow --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

cd "$root"
go -C bench build -o "$out/swbench" ./swbench
exec "$out/swbench" "$@"
