#!/usr/bin/env bash
# Builds certbench from the checkout in the working directory (which must
# be the repository root) and runs it with the given flags, e.g.
#
#   bash cmd/certbench/run.sh --workload certify-large --seed 1 --seconds 20 --trace 0
#
# Every build artefact -- the Go build cache, the certbench and certserver
# binaries, temporary files -- stays under .bench_build in the working
# directory, and no module is ever downloaded.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C cmd/certbench -o "$out/certbench" .
exec "$out/certbench" "$@"
