#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload theta-paper --seed 1 --seconds 15 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}"
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" \
	GOPATH="${build}/gopath" XDG_CONFIG_HOME="${build}/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "${here}" && go build -o "${build}/e2ebench" .)
exec "${build}/e2ebench" "$@"
