#!/usr/bin/env bash
# Builds ipgd and the benchmark command from this checkout's sources,
# then runs the command with this script's arguments, e.g.
#
#   bash ipgbench/run.sh --workload simulate --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build and module caches, temporary
# work directories, telemetry, the binaries) and the traced run's span
# files stay under .bench_build/.  Go telemetry is switched off for that
# private config directory: left on, the go command starts a detached
# upload process that outlives the run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ipgd" ]]; then
	echo "ipgbench: no ipg module with cmd/ipgd at $root" >&2
	exit 1
fi
out="$root/.bench_build/ipgbench"
mkdir -p "$out/home/.config/go/telemetry" "$out/tmp"
echo off >"$out/home/.config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root"
go build -o "$out/ipgd" ./cmd/ipgd >&2
(cd ipgbench && go build -o "$out/ipgbench" .) >&2
exec "$out/ipgbench" -ipgd "$out/ipgd" -out "$out" "$@"
