#!/usr/bin/env bash
# Builds mistperf from source inside the checkout, then runs it with the
# arguments given. Everything the build writes — binary, Go build cache,
# the toolchain's scratch and telemetry directories — lands in
# .bench_build/ at the checkout root; span files and probe scratch space
# land in benchmarks/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/xdg"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/mistperf" .
exec "$build/mistperf" -out "$root/benchmarks/out" "$@"
