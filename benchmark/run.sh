#!/usr/bin/env bash
# Builds the benchmark and emserve from source into .bench_build/ at the
# root of the checkout and runs one workload; the driver appends
# --workload NAME --seed N --seconds S --trace 0|1. Everything the
# build and the run write stays under .bench_build/: Go's build and
# module caches, its temporary and telemetry files, WAL directories and
# input files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$here"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
	go build -o "$out/gkbench" .
	go build -o "$out/emserve" graphkeys/cmd/emserve
) >&2
exec "$out/gkbench" -emserve "$out/emserve" -scratch "$out/work" "$@"
