#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload campaign_cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under $CARGO_TARGET_DIR (default .bench_build) in that
# root: the Go build cache, the binary, scratch state and trace files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go/tmp"

export GOCACHE=$out/go/cache GOPATH=$out/go/path GOMODCACHE=$out/go/path/pkg/mod
export GOTMPDIR=$out/go/tmp TMPDIR=$out/go/tmp
export XDG_CONFIG_HOME=$out/go/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-work" "$@"
