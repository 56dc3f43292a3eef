package main

import (
	"encoding/json"
	"math/rand"

	"treesim/internal/datagen"
	"treesim/internal/dblp"
	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
)

// Workload constants. The write rate and memtable size are chosen so that
// every dblp_rw run spans many seal and compaction cycles while the
// dataset stays close to its base size: 40 inserts/s into 16-entry
// memtables seal about every 0.4 s, and with the store's default trigger
// (4 sealed segments) a compaction follows every third seal — about every
// 1.2 s. A compaction merges every sealed segment, the base dataset's
// included, and slows the reads it overlaps: at this rate several percent
// of them, so the reads' p99 is a quantile inside the compaction-slowed
// reads rather than on the edge of that population, where it moved by a
// third between runs. A 25 s run adds 1000 records to the 5000; at 200
// inserts/s the dataset doubled within the window and the read p50
// climbed with it, from about 3 to 6 ms.
const (
	knnK          = 5
	rangeTau      = 2
	writeRate     = 40 // inserts per second, open loop
	rwMemtable    = 16 // search.WithMemtableSize on the dblp_rw workload
	synthTrees    = 2000
	synthChains   = 20
	synthEdits    = 2 // RandomEdits applied to a member to make a query
	dblpTrees     = 5000
	readSeedSalt  = 1_000_003
	writeSeedSalt = 2_000_003
)

// synthSpec is the paper's default synthetic dataset, N{4,0.5}N{50,2}L8D0.05.
var synthSpec = datagen.Spec{FanoutMean: 4, FanoutStd: 0.5, SizeMean: 50, SizeStd: 2, Labels: 8, Decay: 0.05}

// workload is one traffic mix: a fixed dataset, plus a read stream and a
// write stream generated from the run's seed (each from a seed of its
// own), and how the server is configured.
type workload struct {
	name string
	// size scales the dataset; tests shrink it.
	size int
	// dataset generates the base trees the index is built from.
	dataset func(n int) []*tree.Tree
	// reads returns the workload's deterministic read generator.
	reads func(seed int64, base []*tree.Tree) func() readOp
	// writes returns the deterministic generator of trees to insert. Every
	// workload has one (the write-path replay of a traced run uses it);
	// only workloads with sendWrites put them on the wire.
	writes func(seed int64, base []*tree.Tree) func() *tree.Tree
	// sendWrites runs the open-loop writer next to the closed-loop reader.
	sendWrites bool
	// wal serves with the write-ahead log on (default fsync policy).
	wal bool
	// memtable is search.WithMemtableSize; 0 keeps the store default.
	memtable int
	// sampleEvery and sampleCap pick the exactness sample: every
	// sampleEvery-th read of the timed window, at most sampleCap of them.
	sampleEvery, sampleCap int
}

// readOp is one read request: the query tree and its wire form.
type readOp struct {
	path  string // "/v1/knn" or "/v1/range"
	tree  *tree.Tree
	k     int // k-NN only
	tau   int // range only
	body  []byte
	isKNN bool
}

func knnOp(q *tree.Tree) readOp {
	body, _ := json.Marshal(server.KNNRequest{Tree: q.String(), K: knnK}) // plain struct: cannot fail
	return readOp{path: "/v1/knn", tree: q, k: knnK, body: body, isKNN: true}
}

func rangeOp(q *tree.Tree) readOp {
	body, _ := json.Marshal(server.RangeRequest{Tree: q.String(), Tau: rangeTau}) // plain struct: cannot fail
	return readOp{path: "/v1/range", tree: q, tau: rangeTau, body: body}
}

// datasetSeed fixes every workload's dataset: the run's seed draws only
// its queries and writes. With 20 mutation chains the chain roots decide
// the synthetic trees' sizes, and from one generator seed to the next the
// mean tree size moves from 48.8 to 53.7 nodes and the mean k-NN cost by
// about 20% (seeds 12–15) — more run-to-run spread than any regression
// bound could absorb.
const datasetSeed = 1

func synthDataset(n int) []*tree.Tree {
	return datagen.New(synthSpec, datasetSeed).Dataset(n, synthChains)
}

// synthQueries draws a dataset member and applies RandomEdits to it, so
// each query has a near neighbour at distance ≤ synthEdits.
func synthQueries(seed int64, base []*tree.Tree) func() *tree.Tree {
	pick := rand.New(rand.NewSource(seed))
	g := datagen.New(synthSpec, seed+1)
	return func() *tree.Tree { return g.RandomEdits(base[pick.Intn(len(base))], synthEdits) }
}

func dblpDataset(n int) []*tree.Tree { return dblp.New(datasetSeed).Dataset(n) }

// dblpVariants draws a dataset member and returns a near duplicate of it.
func dblpVariants(seed int64, base []*tree.Tree) func() *tree.Tree {
	pick := rand.New(rand.NewSource(seed))
	g := dblp.New(seed + 1)
	return func() *tree.Tree { return g.Variant(base[pick.Intn(len(base))]) }
}

// dblpRecords generates fresh records (the dblp_rw insert stream).
func dblpRecords(seed int64, _ []*tree.Tree) func() *tree.Tree { return dblp.New(seed).Record }

func asKNN(gen func(int64, []*tree.Tree) func() *tree.Tree) func(int64, []*tree.Tree) func() readOp {
	return func(seed int64, base []*tree.Tree) func() readOp {
		next := gen(seed, base)
		return func() readOp { return knnOp(next()) }
	}
}

func asRange(gen func(int64, []*tree.Tree) func() *tree.Tree) func(int64, []*tree.Tree) func() readOp {
	return func(seed int64, base []*tree.Tree) func() readOp {
		next := gen(seed, base)
		return func() readOp { return rangeOp(next()) }
	}
}

// workloads lists the benchmark's traffic mixes.
var workloads = []workload{
	{
		name: "synth_knn", size: synthTrees,
		dataset: synthDataset, reads: asKNN(synthQueries), writes: synthQueries,
		sampleEvery: 25, sampleCap: 6,
	},
	{
		name: "dblp_knn", size: dblpTrees,
		dataset: dblpDataset, reads: asKNN(dblpVariants), writes: dblpRecords,
		sampleEvery: 25, sampleCap: 40,
	},
	{
		name: "dblp_rw", size: dblpTrees,
		dataset: dblpDataset, reads: asRange(dblpVariants), writes: dblpRecords,
		sendWrites: true, wal: true, memtable: rwMemtable,
		sampleEvery: 50, sampleCap: 40,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newIndex builds the served index: the default BiBranch filter (q=2,
// positional) plus the workload's memtable size.
func (w workload) newIndex(base []*tree.Tree) *search.Index {
	opts := []search.IndexOption{search.NewBiBranch()}
	if w.memtable > 0 {
		opts = append(opts, search.WithMemtableSize(w.memtable))
	}
	return search.NewIndex(base, opts...)
}

// inputs is everything a run sends: the base dataset and memoised read
// and write streams generated from the seed (item i is the same on
// every call, so the traced run and the exactness sample can refer back
// to what the timed window sent).
type inputs struct {
	base   []*tree.Tree
	reads  *stream[readOp]
	writes *stream[*tree.Tree]
}

func (w workload) generate(seed int64) *inputs {
	base := w.dataset(w.size)
	return &inputs{
		base:   base,
		reads:  newStream(w.reads(seed+readSeedSalt, base)),
		writes: newStream(w.writes(seed+writeSeedSalt, base)),
	}
}

// stream memoises a deterministic generator. Not safe for concurrent
// use: each stream has one consumer goroutine.
type stream[T any] struct {
	next  func() T
	items []T
}

func newStream[T any](next func() T) *stream[T] { return &stream[T]{next: next} }

// at returns item i, generating items up to it on first use.
func (s *stream[T]) at(i int) T {
	for len(s.items) <= i {
		s.items = append(s.items, s.next())
	}
	return s.items[i]
}
