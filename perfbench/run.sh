#!/usr/bin/env bash
# Builds the served-lineage benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run from the root of a
# checkout; the build cache, the binary and the benchmark's scratch files all
# stay under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" --root "$root" "$@"
