#!/usr/bin/env bash
# Builds wfperf from source and runs it with the given arguments. Run it
# from the repository root, for example:
#
#   bash cmd/wfperf/run.sh --workload bayes-window --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the daemon workload's state and the span
# files of traced runs all go under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing outside the checkout. The build
# never fetches anything: wfperf needs only the standard library and this
# repository.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$build/wfperf" .)
exec "$build/wfperf" -dir "$build" "$@"
