#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash assocbench/run.sh --workload mine-clicks --seed 1 --seconds 55 --trace 0
#
# Everything the build and the runs leave behind (Go build cache,
# binary, generated datasets, cached truth) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/bin" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/go-cache"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/assocbench" && go build -o "$out/bin/assocbench" .)
exec "$out/bin/assocbench" "$@"
