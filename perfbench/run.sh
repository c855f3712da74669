#!/usr/bin/env bash
# Builds deesim, deesimd, deesim-coord and the perfbench harness from the
# checkout's source, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fig5-cli --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache, state directory and output stays under
# .bench_build/ in the checkout. Outside a full checkout (no go.mod at
# the root) the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/deesim" ]; then
	echo "perfbench: run from the root of a deesim checkout (no go.mod or cmd/ here)" >&2
	exit 2
fi
b="$root/.bench_build"
mkdir -p "$b/bin" "$b/gocache" "$b/gopath" "$b/home" "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOMODCACHE="$b/gopath/pkg/mod" \
	HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" XDG_CACHE_HOME="$b/home/.cache" \
	TMPDIR="$b/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
go build -o "$b/bin/" ./cmd/deesim ./cmd/deesimd ./cmd/deesim-coord >&2
(cd "$root/perfbench" && go build -o "$b/bin/perfbench" .) >&2
exec "$b/bin/perfbench" -bin "$b/bin" -work "$b" "$@"
