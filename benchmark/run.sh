#!/usr/bin/env bash
# Builds the benchmark and sptc-serve from source into .bench_build/ at the
# repository root (again only when a Go source is newer than the binaries),
# then runs the benchmark with the arguments given. Everything, the Go build
# cache included, stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bin"

stale() {
	[[ ! -x "$bin/benchmark" || ! -x "$bin/sptc-serve" ]] && return 0
	[[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin/benchmark" -print -quit)" ]]
}

if stale; then
	mkdir -p "$bin"
	# The go command's own state (build cache, module cache, telemetry and
	# env files under the config dir) is pointed into the checkout as well.
	(cd "$here" && GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local go build -o "$bin/" sparta/cmd/sptc-serve .) >&2
	touch "$bin/benchmark" # go build leaves an up-to-date binary's mtime alone
fi
exec "$bin/benchmark" "$@"
