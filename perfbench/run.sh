#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it; every
# argument passes through (see main.go). Run it from the repository root.
# Build outputs, the Go build cache and traced runs' span dumps all stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out-dir "$out" "$@"
