#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-churn8k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace spans stay under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: no continustreaming sources at $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
