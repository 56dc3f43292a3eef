#!/bin/sh
# Tier-1 gate: build, vet, test, and race-test the whole module.
# Equivalent to `make ci`; kept as a shell script for environments
# without make.
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

# Shard + compaction hammer: the parallel engine's exactness certificate
# (forced over-sharding, shared worker pool, concurrent queries) and the
# storage engine's epoch-snapshot certificate (concurrent inserts,
# deletes, queries, compactions, snapshot writes) — run under the race
# detector on their own so a failure names the engine, not a random
# package.
echo "== shard + compaction hammer (-race)"
go test -race -count=2 -run 'Shard|Hammer' ./internal/search

# Chaos matrix: every durability operation × every fault class, with a
# restart and a zero-acked-write-loss + parity check per cell. Run under
# the race detector so the degraded-mode prober and snapshot loop are
# exercised for data races too.
echo "== chaos matrix (-race)"
go test -race -count=1 -run 'Chaos|Degraded|Fallback|TornTombstone' ./internal/server ./internal/wal

# Parallel k-NN exactness stress: the bounded-refine invariance
# certificate and the claimed-task test, at several GOMAXPROCS values and
# repeated, so a timing-dependent wrong answer has more than one chance
# to show.
echo "== invariance stress (-cpu 1,2,4 -count=3)"
go test -cpu 1,2,4 -count=3 -run 'Invariance|ClaimedTask' ./internal/search

# Fuzz smoke: a short budget per target catches parser and codec
# regressions on the spot; long runs belong in a dedicated job.
FUZZTIME="${FUZZTIME:-10s}"
echo "== go test -fuzz (fuzztime $FUZZTIME per target)"
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime="$FUZZTIME" ./internal/tree
go test -run='^$' -fuzz='^FuzzParseString$' -fuzztime="$FUZZTIME" ./internal/xmltree
go test -run='^$' -fuzz='^FuzzLoadIndex$' -fuzztime="$FUZZTIME" ./internal/search
go test -run='^$' -fuzz='^FuzzManifest$' -fuzztime="$FUZZTIME" ./internal/segstore
go test -run='^$' -fuzz='^FuzzParseTraceparent$' -fuzztime="$FUZZTIME" ./internal/obs
go test -run='^$' -fuzz='^FuzzTraceparentMiddleware$' -fuzztime="$FUZZTIME" ./internal/server

echo "ci: all green"
