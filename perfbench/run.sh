#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload rebuild --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the span files all live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, so nothing is
# read or written outside it. Without the repository's sources next to
# perfbench/ the build fails and the script exits non-zero before any run.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export CARGO_TARGET_DIR="$out"

# Keep the Go toolchain's caches, config and telemetry inside the checkout.
export GOCACHE="$out/go/cache" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path"
export HOME="$out/go/home" XDG_CONFIG_HOME="$out/go/home/.config" XDG_CACHE_HOME="$out/go/home/.cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
mkdir -p "$HOME"

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
