#!/usr/bin/env bash
# Builds the acrbench runner from the checkout's sources and runs it with
# the arguments given, e.g.
#
#   bash _acrbench/run.sh --workload dse-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# trace files stay under .bench_build/ in the current directory; no
# network access is needed (the module has no third-party requirements).
set -euo pipefail

out="$PWD/.bench_build"
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
# The go command's own state (telemetry counters) lands under the
# checkout too.
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0

# Name the commit only when the current directory is itself a git
# checkout; an enclosing repository's HEAD would be the wrong code.
commit=""
if [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$PWD" ]; then
	commit="$(git rev-parse HEAD)"
	git diff --quiet HEAD -- 2>/dev/null || commit="$commit+dirty"
fi

go -C "$here" build -o "$out/acrbench" .
exec "$out/acrbench" -out "$out/acrbench-out" -commit "$commit" "$@"
