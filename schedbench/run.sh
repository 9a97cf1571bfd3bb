#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, for example:
#
#   bash schedbench/run.sh --workload corpus_cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes — the binary,
# the Go build cache and the run's scratch files — stays under
# .bench_build in the root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/schedbench/go.mod" ]]; then
	echo "schedbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/schedbench" && go build -o "$out/schedbench" .)
exec "$out/schedbench" -root "$root" "$@"
