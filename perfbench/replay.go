package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/search"
	"treesim/internal/segstore"
	"treesim/internal/server"
	"treesim/internal/tree"
	"treesim/internal/wal"
)

// replica mirrors the served dataset for the in-process replays: a
// BiBranch filter built with Filter.Index over the base trees and
// extended with every acknowledged insert.
type replica struct {
	filter *search.BiBranch
	trees  []*tree.Tree
}

func newReplica(base []*tree.Tree) *replica {
	f := search.NewBiBranch()
	f.Index(base)
	return &replica{filter: f, trees: append([]*tree.Tree(nil), base...)}
}

// add appends the tree the served index assigned id to; an id out of
// sequence (an insert whose reply was lost) leaves the replica as is.
func (r *replica) add(id int, t *tree.Tree) {
	if id == len(r.trees) {
		r.filter.Append(t)
		r.trees = append(r.trees, t)
	}
}

// refineCounts is the refine replay's accounting for one query.
type refineCounts struct {
	calls, cutShort  int64
	cells, fullCells int64
	within           time.Duration // time inside editdist.DistanceWithin
}

// filterPass is Algorithm 2's filter stage, sequential: the query's
// bound against every tree of the replica, and the tree ids sorted by
// ascending (bound, id). For range queries only trees whose bound does
// not exceed τ are kept.
func (r *replica) filterPass(tr *tracer, req, parent int32, op readOp) (bounds, order []int, boundDur time.Duration) {
	b := tr.begin("branch.bounds", req, parent)
	bd := r.filter.Query(op.tree)
	bounds = make([]int, len(r.trees))
	order = make([]int, 0, len(r.trees))
	for i := range r.trees {
		if op.isKNN {
			bounds[i] = bd.KNNBound(i)
		} else if bounds[i] = bd.RangeBound(i, op.tau); bounds[i] > op.tau {
			continue
		}
		order = append(order, i)
	}
	boundDur = tr.end(b)
	sort.Slice(order, func(x, y int) bool {
		if bounds[order[x]] != bounds[order[y]] {
			return bounds[order[x]] < bounds[order[y]]
		}
		return order[x] < order[y]
	})
	return bounds, order, boundDur
}

// refinePass is Algorithm 2's refine stage, sequential, so its counts are
// deterministic: k-NN verifies in ascending-bound order against the
// current k-th best distance and stops at the first bound above it;
// range verifies every surviving candidate against τ.
func (r *replica) refinePass(tr *tracer, req, parent int32, op readOp, bounds, order []int) refineCounts {
	var rc refineCounts
	var best []search.Result // k-NN: ascending (dist, id), at most k
	cutoff := math.MaxInt
	if !op.isKNN {
		cutoff = op.tau
	}
	for _, id := range order {
		if op.isKNN && bounds[id] > cutoff {
			break
		}
		var m editdist.Metrics
		e := tr.begin("editdist.within", req, parent)
		d, ok := editdist.DistanceWithin(op.tree, r.trees[id], cutoff, editdist.WithMetrics(&m))
		rc.within += tr.end(e)
		rc.calls++
		rc.cells += m.Cells
		rc.fullCells += m.FullCells
		if !ok {
			rc.cutShort++
			continue
		}
		if !op.isKNN {
			continue
		}
		best = append(best, search.Result{ID: id, Dist: d})
		canonical(best)
		if len(best) > op.k {
			best = best[:op.k]
		}
		if len(best) == op.k {
			cutoff = best[op.k-1].Dist
		}
	}
	return rc
}

// readLayers accumulates the traced reads' per-layer measurements.
type readLayers struct {
	reads                          int
	httpMs, indexMs, overheadMs    []float64
	filterMs, refineMs             []float64
	bounds                         int64
	boundTime, filterTime          time.Duration
	refine                         refineCounts
	candidates, verified, dataset  int64
	segments                       int64
	codecDecodeUs, codecEncodeUs   []float64
	searchErrors, replicaOutOfSync int
}

// tracedReads replays each read of the traced window in-process, right
// after its HTTP round trip, recording a span around every call into a
// layer: the served index (search.index), the public request and
// response types' JSON codec (server.decode / server.encode), and a
// sequential Algorithm 2 on the replica (search.filter → branch.bounds,
// search.refine → editdist.within).
type tracedReads struct {
	tr  *tracer
	ix  *search.Index
	rep *replica
	acc readLayers

	mu      sync.Mutex
	pending []ackedInsert // inserts acknowledged since the last read
}

type ackedInsert struct {
	id int
	t  *tree.Tree
}

func (x *tracedReads) onRead(op readOp, rec *readRec, body []byte) {
	x.mu.Lock()
	pending := x.pending
	x.pending = nil
	x.mu.Unlock()
	for _, a := range pending {
		x.rep.add(a.id, a.t)
	}

	tr, req := x.tr, int32(rec.idx)
	root := tr.beginAt("read", req, -1, rec.sent)
	tr.record("client.http", req, root, rec.sent, rec.done)
	st := x.ix.StoreStats()
	x.acc.segments += int64(st.Segments)
	if st.MemtableLen > 0 {
		x.acc.segments++
	}

	// The server's JSON work on the public wire types.
	sp := tr.begin("server.decode", req, root)
	var err error
	if op.isKNN {
		var r server.KNNRequest
		err = json.NewDecoder(bytes.NewReader(op.body)).Decode(&r)
	} else {
		var r server.RangeRequest
		err = json.NewDecoder(bytes.NewReader(op.body)).Decode(&r)
	}
	x.acc.codecDecodeUs = append(x.acc.codecDecodeUs, us(tr.end(sp)))
	var resp server.QueryResponse
	if err == nil {
		err = json.Unmarshal(body, &resp)
	}
	sp = tr.begin("server.encode", req, root)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err == nil {
		err = enc.Encode(resp)
	}
	x.acc.codecEncodeUs = append(x.acc.codecEncodeUs, us(tr.end(sp)))

	// The served index, in-process.
	sp = tr.begin("search.index", req, root)
	var stats search.Stats
	if err == nil {
		if op.isKNN {
			_, stats, err = x.ix.KNN(context.Background(), op.tree, op.k)
		} else {
			_, stats, err = x.ix.Range(context.Background(), op.tree, op.tau)
		}
	}
	indexDur := tr.end(sp)
	if err != nil {
		x.acc.searchErrors++
		tr.end(root)
		return
	}

	// Sequential filter and refine on the replica.
	fsp := tr.begin("search.filter", req, root)
	bounds, order, boundDur := x.rep.filterPass(tr, req, fsp, op)
	filterDur := tr.end(fsp)
	rsp := tr.begin("search.refine", req, root)
	rc := x.rep.refinePass(tr, req, rsp, op, bounds, order)
	refineDur := tr.end(rsp)
	tr.end(root)

	httpMs := ms(rec.done.Sub(rec.sent))
	a := &x.acc
	a.reads++
	a.httpMs = append(a.httpMs, httpMs)
	a.indexMs = append(a.indexMs, ms(indexDur))
	a.overheadMs = append(a.overheadMs, httpMs-ms(indexDur))
	a.filterMs = append(a.filterMs, ms(filterDur))
	a.refineMs = append(a.refineMs, ms(refineDur))
	a.bounds += int64(len(bounds))
	a.boundTime += boundDur
	a.filterTime += filterDur
	a.refine.calls += rc.calls
	a.refine.cutShort += rc.cutShort
	a.refine.cells += rc.cells
	a.refine.fullCells += rc.fullCells
	a.refine.within += rc.within
	a.candidates += int64(stats.Candidates)
	a.verified += int64(stats.Verified)
	a.dataset += int64(stats.Dataset)
	if len(bounds) != stats.Dataset {
		a.replicaOutOfSync++
	}
}

// tracedWrites records the writer's spans in a traced window and hands
// each acknowledged insert to the reader's replica.
type tracedWrites struct {
	tr    *tracer
	reads *tracedReads
	// JSON codec of the public insert types, microseconds per insert.
	decodeUs, encodeUs []float64
}

func (x *tracedWrites) onWrite(t *tree.Tree, rec *writeRec, reqBody []byte) {
	tr, req := x.tr, int32(rec.idx)
	root := tr.beginAt("write", req, -1, rec.sent)
	tr.record("client.http", req, root, rec.sent, rec.done)
	sp := tr.begin("server.decode", req, root)
	var ir server.InsertRequest
	_ = json.NewDecoder(bytes.NewReader(reqBody)).Decode(&ir) // the benchmark encoded it
	x.decodeUs = append(x.decodeUs, us(tr.end(sp)))
	sp = tr.begin("server.encode", req, root)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(server.InsertResponse{ID: rec.id, Size: rec.id + 1}) // into a bytes.Buffer
	x.encodeUs = append(x.encodeUs, us(tr.end(sp)))
	tr.end(root)

	x.reads.mu.Lock()
	x.reads.pending = append(x.reads.pending, ackedInsert{id: rec.id, t: t})
	x.reads.mu.Unlock()
}

// writeLayers is the write-path replay's accounting.
type writeLayers struct {
	inserts      int
	insertUs     []float64
	appendUs     []float64
	walBytes     int64
	seals        uint64
	compactions  uint64
	compactionMs []float64
}

// replayWrites applies the workload's first n writes in-process, in
// order: Index.Insert on a replica index over the base dataset, and
// Log.Append of the same insert records to a fresh write-ahead log under
// dir with the default fsync policy (SyncAlways). Every workload's replay
// uses the dblp_rw store configuration (BiBranch, rwMemtable-entry
// memtables), so the write path is measured on each workload's tree
// shapes under one configuration. Compaction runs synchronously whenever
// the sealed-segment count reaches the store's default trigger, so the
// seal and compaction counts at a fixed n are deterministic.
func replayWrites(in *inputs, n int, dir string) (writeLayers, error) {
	var wl writeLayers
	ix := search.NewIndex(in.base, search.NewBiBranch(),
		search.WithMemtableSize(rwMemtable), search.WithCompactionThreshold(-1))
	ix.OnCompaction(func(cs search.CompactionStats) { wl.compactionMs = append(wl.compactionMs, ms(cs.Duration)) })
	for i := 0; i < n; i++ {
		t := in.writes.at(i)
		start := time.Now()
		_, _ = ix.Insert(t) // the error is always nil
		wl.insertUs = append(wl.insertUs, us(time.Since(start)))
		if ix.StoreStats().Segments >= segstore.DefaultCompactAfter {
			ix.Compact()
		}
	}
	st := ix.StoreStats()
	wl.inserts, wl.seals, wl.compactions = n, st.Seals, st.Compactions

	l, err := wal.Open(filepath.Join(dir, "replay.wal"), wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return wl, err
	}
	before := l.Bytes()
	for i := 0; i < n; i++ {
		rec := wal.EncodeInsert(len(in.base)+i, in.writes.at(i).String())
		start := time.Now()
		if err := l.Append(rec); err != nil {
			l.Close()
			return wl, err
		}
		wl.appendUs = append(wl.appendUs, us(time.Since(start)))
	}
	wl.walBytes = l.Bytes() - before
	if err := l.Close(); err != nil {
		return wl, err
	}
	return wl, os.RemoveAll(dir)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
