#!/usr/bin/env bash
# Builds the perfbench command from this checkout's source and runs it
# with the arguments given, from the checkout root:
#
#   bash perfbench/run.sh --workload rate-and-read --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# checkout: the Go build cache, temporary files, the durable homes and
# the traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
