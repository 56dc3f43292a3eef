# Tier-1 gate: `make ci` is what every change must keep green.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build vet test race hammer chaos bench fuzz ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Parallel-engine and storage-engine certificate: the shard invariance
# tests and the compaction hammer (concurrent inserts, deletes, queries,
# compactions and snapshots) under the race detector, repeated; then the
# k-NN exactness stress at several GOMAXPROCS values.
hammer:
	$(GO) test -race -count=2 -run 'Shard|Hammer' ./internal/search
	$(GO) test -cpu 1,2,4 -count=3 -run 'Invariance|ClaimedTask' ./internal/search

# Fault-tolerance certificate: the chaos matrix drives every durability
# operation (insert, delete, seal, compact, snapshot, rotate, trim)
# through every fault class (crash, short write, fsync error), restarts
# after each cell, and asserts zero acked-write loss plus
# snapshot/WAL/live-index parity — all under the race detector.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Degraded|Fallback|TornTombstone' ./internal/server ./internal/wal

bench:
	$(GO) test -bench=. -benchmem -run=^$$

fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/tree
	$(GO) test -run='^$$' -fuzz='^FuzzParseString$$' -fuzztime=$(FUZZTIME) ./internal/xmltree
	$(GO) test -run='^$$' -fuzz='^FuzzLoadIndex$$' -fuzztime=$(FUZZTIME) ./internal/search
	$(GO) test -run='^$$' -fuzz='^FuzzManifest$$' -fuzztime=$(FUZZTIME) ./internal/segstore

ci: build vet test race hammer chaos fuzz
