#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-search --seed 1 --seconds 36 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, traces and
# snapshot directories.
set -euo pipefail

root="$(pwd)"
state="$root/.bench_build/perfbench"
mkdir -p "$state/tmp" "$state/home"
export HOME="$state/home"
export XDG_CACHE_HOME="$state/home/.cache" XDG_CONFIG_HOME="$state/home/.config"
export GOCACHE="$state/gocache" GOMODCACHE="$state/gomodcache" GOPATH="$state/gopath"
export TMPDIR="$state/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$state/bin/perfbench" .
exec "$state/bin/perfbench" "$@"
