#!/usr/bin/env bash
# Builds the daemon (cmd/decomposed) and the load generator from this
# checkout into .bench_build/, then runs the load generator with the given
# arguments:
#
#   bash servebench/run.sh --workload query-hot --seed 1 --seconds 20 --trace 0
#   bash servebench/run.sh --workload all --seed 1 --seconds 20
#
# Run it from the repository root. Everything it writes, the Go build cache
# included, stays under .bench_build/, and the build never goes to the
# network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/decomposed || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the repository root; go.mod, cmd/decomposed and servebench/ are required" >&2
	exit 2
fi

out=$PWD/.bench_build
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local \
	GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

go build -o "$out/decomposed" ./cmd/decomposed
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -daemon "$out/decomposed" -out "$out" "$@"
