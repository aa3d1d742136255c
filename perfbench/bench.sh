#!/usr/bin/env bash
# Builds the benchmark program from the checkout it is run in and execs it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/bench.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Every build artefact, Go cache and trace file stays under .bench_build/
# in the checkout. Outside a full checkout (no ../go.mod for the replace
# directive) the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
