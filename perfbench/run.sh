#!/bin/sh
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   sh perfbench/run.sh --workload cold --seed 0 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, the binary, and the
# spans of traced runs) goes under .bench_build in the checkout.
set -e
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
