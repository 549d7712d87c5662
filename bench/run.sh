#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload remote-qd1-read --seed 7 --seconds 25 --trace 0
#
# The Go build cache, temporary files, the go command's configuration and
# telemetry, and the binary stay under .bench_build/ in the current
# directory, and nothing is downloaded: the benchmark module needs only the
# repository module next to it, so the build fails (and nothing is printed
# on stdout) without it.
#
# The benchmark runs with GOMAXPROCS=1 unless the caller sets GOMAXPROCS.
# The simulation kernel runs one simulated process at a time, so a second
# P adds no speed, only wakeups across CPUs whose cost depends on what else
# the machine runs: measured on 2 CPUs, a second P made nvmeof-write-64k
# about 10% slower and its repetitions less steady. The value used is
# printed, and recorded by -out.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$out/bench" .) >&2
GOMAXPROCS="${GOMAXPROCS:-1}" exec "$out/bench" "$@"
