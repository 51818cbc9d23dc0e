#!/usr/bin/env bash
# Builds the LTAM benchmark from the checkout's sources and runs it.
#
#   bash ltambench/run.sh --workload grid8-hot --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, data directories) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "ltambench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOTELEMETRY=off CGO_ENABLED=0

go -C "$root/ltambench" build -o "$out/ltambench" . >&2
exec "$out/ltambench" "$@"
