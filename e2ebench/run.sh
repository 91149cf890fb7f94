#!/usr/bin/env bash
# Builds lampsd and the e2ebench command from this checkout and runs the
# benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload miss_large --seed 1 --seconds 15 --trace 0
#
# Everything it writes (binaries, the Go build cache, lampsd logs, span
# files) goes under .bench_build/ at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/e2ebench"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lampsd" ]; then
	echo "e2ebench: no lampsd sources at $root (go.mod, cmd/lampsd)" >&2
	exit 1
fi

# The go command's telemetry would start a detached child process that
# outlives this script; a mode file of "off" in the private config
# directory keeps it from starting.
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off' >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$here"
go build -o "$out/lampsd" lamps/cmd/lampsd >&2
go build -o "$out/e2ebench" . >&2
cd "$root"
exec "$out/e2ebench" -lampsd "$out/lampsd" -out "$out/out" "$@"
