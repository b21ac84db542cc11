#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it;
# every argument is passed through (see doc.go). Build outputs, the Go
# build cache and the traced run's spans stay under .bench_build at the
# root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/e2ebench" .)
cd "$root"
exec "$build/e2ebench" "$@"
