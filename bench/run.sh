#!/usr/bin/env bash
# Driver entry point: build the benchmark from source inside the checkout,
# then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the build writes stays in this directory: the Go build cache,
# its temporary files and the go command's own config live in bench/.build/,
# spans from traced runs in bench/out/. Both are git-ignored.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

# A no-op when the binary is current; fails (and so does the run, before
# printing any result) when the repository the benchmark measures is absent.
(cd "$here" && go build -o "$build/ccba-bench" .)

exec "$build/ccba-bench" -out "$here/out" "$@"
