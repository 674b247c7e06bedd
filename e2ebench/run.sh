#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the root of a checkout:
#
#   bash e2ebench/run.sh --workload snapshot-query --seed 1 --seconds 10 --trace 0
#
# Every build input and output — Go build cache, temporary files, the
# binary and the traced run's span dumps — stays under .bench_build/ in
# the checkout. The benchmark module points at the repository root with a
# replace directive, so outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-build" "$out/tmp" "$out/home" "$out/spans"

export GOCACHE="$out/go-build"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --span-dir "$out/spans" "$@"
