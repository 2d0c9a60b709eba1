#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given flags, e.g. from the root of the checkout:
#
#   bash bench/run.sh --workload ic3-queries --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) goes to .bench_build at the root of the checkout.  Without the
# verifier's sources next to bench/ the build fails and the script exits
# non-zero before any measurement.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= \
	GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
