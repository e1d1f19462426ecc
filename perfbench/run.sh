#!/usr/bin/env bash
# Builds the topkcleand daemon and the benchmark harness from the checkout
# it is run in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Every build product and every file a run writes stays under .bench_build
# (or $CARGO_TARGET_DIR when it is set) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/topkcleand" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/topkcleand and go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

# Keep the toolchain's caches, temporary files and config inside the
# checkout, and never let it reach for the network.
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/topkcleand" ./cmd/topkcleand
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/topkcleand" -work "$out/work" "$@"
