#!/usr/bin/env bash
# Builds the benchmark and the gradsyncd daemon from this checkout, then
# runs one workload; every argument is passed through to the benchmark:
#
#   bash perfbench/run.sh --workload ring10k-oracle --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# inside the checkout, under .bench_build/.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/gradsyncd ] || [ ! -f BENCHMARK.json ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gradsyncd and BENCHMARK.json not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/gradsyncd" ./cmd/gradsyncd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/gradsyncd" "$@"
