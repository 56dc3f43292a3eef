#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload synth_knn --seed 1 --seconds 10 --trace 0
#
# All three workloads, end-to-end metrics then per-layer ones:
#
#   for w in synth_knn dblp_knn dblp_rw; do for t in 0 1; do
#     bash perfbench/run.sh --workload $w --seed 1 --seconds 25 --trace $t; done; done
#
# Everything it writes (Go build cache, binary, scratch files, spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# Keep the toolchain's caches, temporary files and per-user state (Go
# reads and writes some under $HOME) inside the build directory, and
# never let it fetch a toolchain or module.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

commit=unknown
if [ -d .git ]; then
    commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --commit "$commit" --workdir "$out" "$@"
