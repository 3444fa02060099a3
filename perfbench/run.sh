#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed on (see main.go). Run it from the root of the
# repository. Build outputs and the Go build cache stay inside the
# checkout, under .bench_build/. The build ignores any go.work above the
# checkout and any GOFLAGS set around it, does not stamp version-control
# data (the checkout may sit inside a git tree that git refuses to read)
# and needs no C compiler.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
