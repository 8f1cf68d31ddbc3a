#!/usr/bin/env bash
# Builds tripolld, tripoll-worker and the benchmark from the checkout's
# sources, then runs the benchmark with the arguments given. Everything the
# build and the run write stays under .bench_build/ in the checkout: the Go
# build cache, the toolchain's temporary and telemetry files, the binaries,
# and the benchmark's scratch directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/tripolld || ! -d cmd/tripoll-worker ]]; then
  echo "bench/run.sh: $root holds no tripolld sources (go.mod, cmd/tripolld, cmd/tripoll-worker): nothing to measure" >&2
  exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: otherwise the first go command in a fresh config directory
# starts a detached telemetry child that outlives this script.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/tripolld ./cmd/tripoll-worker
(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" "$@"
