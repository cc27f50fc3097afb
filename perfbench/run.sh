#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, the
# workloads' scratch directories and the traced run's span files.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export TMPDIR="${build}/tmp"
export GOTMPDIR="${build}/tmp"
export GOENV=off
export GOCACHE="${build}/go-cache"
export GOMODCACHE="${build}/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "${here}" && go build -o "${build}/perfbench" .)

export GOMAXPROCS=2
exec "${build}/perfbench" "$@"
