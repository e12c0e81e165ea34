#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload paper --seed 1 --seconds 12 --trace 0
#
# Every build product and Go cache lands in .bench_build/ at the root, so
# compilation never counts toward the benchmark's own set-up time.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/_perfbench" && go build -o "$out/lilybench" .) >&2
exec "$out/lilybench" "$@"
