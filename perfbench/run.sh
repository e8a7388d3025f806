#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it from the
# checkout's root with every argument passed through, for example:
#
#   bash perfbench/run.sh --workload gemm-large --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced runs' spans all go under
# .bench_build/perfbench in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
