#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload chase-read --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the binary, the Go build cache, Go's config
# and telemetry files) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
