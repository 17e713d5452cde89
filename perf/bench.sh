#!/usr/bin/env bash
# Builds the perf command from source and runs one measured run:
#
#   bash perf/bench.sh --workload sweep|corun|plan|service --seed N --seconds S --trace 0|1
#
# --trace 0 runs `perf run`, --trace 1 `perf trace`; every other argument
# is passed on. Run it from the repository root. The build cache, the
# binary and every file a run writes stay under .bench_build/ in that
# directory; nothing outside it is read or written except the sources. The
# last line of standard output is the run's JSON result.
set -euo pipefail

sub=run
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--trace | -trace)
		case "${2-}" in
		0) ;;
		1) sub=trace ;;
		*)
			echo "bench.sh: --trace takes 0 or 1" >&2
			exit 2
			;;
		esac
		shift 2
		;;
	*)
		args+=("$1")
		shift
		;;
	esac
done

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# A self-contained Go environment: no module downloads, no toolchain
# switch, and the build cache, config and telemetry kept in the build dir.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perf" && go build -o "$out/perf" .) >&2
exec "$out/perf" "$sub" ${args[@]+"${args[@]}"}
