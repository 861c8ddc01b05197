#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfledger/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and every
# scratch file stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin" # the official tarball's location
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off

go -C "$here" build -o "$out/perfledger" .
exec "$out/perfledger" "$@"
