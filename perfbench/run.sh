#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
#
#   bash perfbench/run.sh --workload <solve-large|serve-warm|gateway-cold> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout of the spcg module. Every build and
# output file stays inside the checkout: .bench_build/ holds the Go build
# cache and the binary, .bench_out/ the per-run result files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/spcg.go" || ! -d "$root/internal/service" ]]; then
	echo "perfbench: $root is not the root of an spcg checkout (go.mod, spcg.go, internal/service missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
