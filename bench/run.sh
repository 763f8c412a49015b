#!/bin/sh
# The command BENCHMARK.json names. It builds the harness from source
# inside the checkout, build cache included, so that nothing is written
# outside it, and runs it from the checkout's root with the driver's
# arguments. Without the repository around it (no ../go.mod) the build
# fails and so does this script.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hipbench" .)
cd "$root"
exec "$build/hipbench" "$@"
