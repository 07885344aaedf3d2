#!/usr/bin/env bash
# Builds the r3d benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload windows --seed 42 --seconds 30 --trace 0
#
# The binary, the Go build cache, the toolchain's own state and every file
# a run writes stay under .bench_build/ in the checkout. Outside a full
# checkout (no ../go.mod for the replace directive) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
