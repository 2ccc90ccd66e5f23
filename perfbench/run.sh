#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in, then runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload tcp-full --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file stays under .bench_build/ in that root; nothing is
# fetched from the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
