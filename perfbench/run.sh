#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and its temporary files stay under
# .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The commit stamps the run's record; a checkout without .git has none.
commit=unknown
if [ -e .git ] && commit=$(git rev-parse HEAD 2>/dev/null); then
	git diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
else
	commit=unknown
fi
export BENCH_COMMIT="$commit"
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
