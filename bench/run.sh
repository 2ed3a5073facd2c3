#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it from the
# checkout root. Every file the build writes (binary, Go build cache, the
# toolchain's own config) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/tdbench" .)
cd "$root"
exec "$build/tdbench" "$@"
