#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload nav-open --seed 1 --seconds 20 --trace 0
#
# Builds the daemon (cmd/lgvsim) and the load generator (this directory,
# its own Go module) into .bench_build/, keeping the Go build cache and
# temp files there too, then hands every argument to the generator. The
# last line of standard output is the JSON result; progress goes to
# standard error.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/lgvsim" || ! -f "$root/perfbench/go.mod" ]]; then
    echo "perfbench: run from the repository root (go.mod, cmd/lgvsim and perfbench/ are needed)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/lgvsim" ./cmd/lgvsim
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -lgvsim "$out/lgvsim" -work "$out/work" "$@"
