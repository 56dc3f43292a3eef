package search

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treesim/internal/editdist"
	"treesim/internal/obs"
	"treesim/internal/tree"
)

// The sharded parallel execution engine over the segmented store. A query
// starts by taking a consistent cut of the store — the sealed segments
// plus a frozen memtable snapshot — and flattens them into one global
// position domain [0, n); positions ascend with dataset ids. The filter
// stage partitions that domain into S contiguous shards (S = WithShards,
// default GOMAXPROCS, clamped to the domain size) whose lower bounds are
// computed concurrently on the index's shared worker pool, each position
// bounded by its own segment's filter; the refine stage fans
// exact-distance verifications over the same pool, with a k-NN query
// propagating its current k-th-best distance across workers through an
// atomic so late verifications prune harder. Tombstoned positions are
// skipped before any bound is computed.
//
// Results are shard- and segment-layout invariant by construction:
//
//   - every visible tree's bound is computed exactly once, into its own
//     slot, and every per-segment bound is a sound lower bound of the
//     same edit distance (differently-built filters only differ in
//     tightness, never in soundness);
//   - k-NN candidates are globally merged in ascending (bound, id) order,
//     and the top-k heap breaks distance ties by id, so the answer is the
//     unique k-minimal (dist, id) set no matter which worker verified
//     what or how the dataset is cut into segments;
//   - a verification is skipped only when its bound exceeds the atomic
//     threshold, which never rises and ends at the final k-th distance —
//     by the lower-bound property such a tree cannot be in the answer.
//
// The refine stage is threshold-bounded: every verification runs through
// editdist.DistanceWithin against the live cutoff (τ, or the k-NN atomic
// threshold), so most false positives are disproven by an O(n) pre-check
// or an early-abandoned banded DP instead of the full program. This never
// changes results — a distance proven above the cutoff can't enter the
// answer — only the work: see the verifier type and the bounded-refine
// invariance tests.
//
// Stats.Verified (and therefore FalsePositives and Tightness) for k-NN can
// vary with worker timing — opportunistic pruning means a fast machine may
// verify a few candidates a slow one skips — but results, Candidates and
// Results are deterministic. Range queries verify every candidate, so all
// their counters are deterministic too.

// shardCount resolves the shard count for a domain of n items.
func (ix *Index) shardCount(n int) int {
	s := ix.shards
	if s <= 0 {
		s = ix.pool.size
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRange returns the half-open range of shard s out of S over n items.
func shardRange(n, S, s int) (lo, hi int) {
	return s * n / S, (s + 1) * n / S
}

// sortByBound orders positions by ascending (bound, position). Positions
// ascend with dataset ids, so this is the canonical (bound, id) order.
func sortByBound(ids []int, bounds []int) {
	sort.Slice(ids, func(x, y int) bool {
		bx, by := bounds[ids[x]], bounds[ids[y]]
		if bx != by {
			return bx < by
		}
		return ids[x] < ids[y]
	})
}

// mergeRuns merges per-shard (bound, position)-sorted runs into one
// globally sorted order. Shard counts are small (≈ GOMAXPROCS), so a
// linear scan over the run heads beats heap bookkeeping.
func mergeRuns(runs [][]int, bounds []int) []int {
	if len(runs) == 1 {
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]int, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		bestS := -1
		bestID := 0
		for s, r := range runs {
			if heads[s] >= len(r) {
				continue
			}
			id := r[heads[s]]
			if bestS < 0 || bounds[id] < bounds[bestID] ||
				(bounds[id] == bounds[bestID] && id < bestID) {
				bestS, bestID = s, id
			}
		}
		out = append(out, bestID)
		heads[bestS]++
	}
	return out
}

// knn runs one k-NN query (Algorithm 2, sharded across segments).
func (ix *Index) knn(ctx context.Context, q *tree.Tree, k int, qc *queryConfig, ex *Explain) ([]Result, Stats, error) {
	cut := ix.cut()
	stats := Stats{Dataset: cut.live}
	if k <= 0 || cut.live == 0 {
		return nil, stats, nil
	}
	if k > cut.live {
		k = cut.live
	}
	if ex != nil {
		ex.Segments = len(cut.segs)
	}

	// Stage spans hang off the caller's trace (nil span methods are
	// no-ops, so untraced queries pay one nil check per stage).
	span := qc.trace(ctx)

	start := time.Now()
	fspan := span.StartChild("filter")
	prims, order, bounds, err := ix.filterKNN(ctx, cut, q, fspan)
	stats.FilterTime = time.Since(start)
	if err != nil {
		fspan.SetBool("canceled", true)
		fspan.End()
		return nil, stats, err
	}
	fspan.SetInt("candidates", int64(len(order)))
	fspan.SetInt("segments", int64(len(cut.segs)))
	fspan.End()
	if ex != nil && len(order) > 0 {
		// order is sorted by bound, so the distribution falls out of the
		// nearest-rank positions directly.
		n := len(order)
		ex.Bounds = BoundDist{
			Computed: n,
			Min:      bounds[order[0]],
			P50:      bounds[order[(n-1)/2]],
			P99:      bounds[order[(n-1)*99/100]],
			Max:      bounds[order[n-1]],
		}
	}

	start = time.Now()
	rspan := span.StartChild("refine")
	out, err := ix.refineKNN(ctx, cut, q, k, order, bounds, prims, &stats, ex, rspan)
	stats.RefineTime = time.Since(start)
	rspan.SetInt("pruned", int64(len(order)-stats.Verified))
	if err != nil {
		rspan.SetInt("verified", int64(stats.Verified))
		rspan.SetBool("canceled", true)
		rspan.End()
		return nil, stats, err
	}
	stats.Results = len(out)
	if len(out) > 0 {
		// A tree is a candidate when its bound does not exceed the final
		// k-th distance: no verification order could prune it unverified.
		worst := out[len(out)-1].Dist
		stats.Candidates = sort.Search(len(order), func(i int) bool {
			return bounds[order[i]] > worst
		})
	}
	stats.FalsePositives = stats.Verified - len(out)
	rspan.SetInt("verified", int64(stats.Verified))
	rspan.SetInt("results", int64(len(out)))
	rspan.End()
	return out, stats, nil
}

// filterKNN computes every visible tree's optimistic lower bound —
// sharded when the index is configured for it — and returns the global
// positions sorted by ascending (bound, id), plus the caller's per-segment
// bounder set (reused for tightness sampling in the refine stage).
func (ix *Index) filterKNN(ctx context.Context, cut *qcut, q *tree.Tree, fspan *obs.Span) (*segBounders, []int, []int, error) {
	n := cut.n
	S := ix.shardCount(n)
	bounds := make([]int, n)
	prims := newSegBounders(cut, q)
	// Materialized up front so the refine stage can read the set
	// concurrently without lazy-init races.
	prims.materialize()

	if S == 1 {
		order := make([]int, 0, cut.live)
		si := 0
		for pos := 0; pos < n; pos++ {
			if pos%ctxCheckEvery == 0 && ctx.Err() != nil {
				return prims, nil, nil, ctx.Err()
			}
			for pos >= cut.starts[si+1] {
				si++
			}
			local := pos - cut.starts[si]
			if cut.tombs.Has(cut.segs[si].ID(local)) {
				continue
			}
			bounds[pos] = prims.at(si).KNNBound(local)
			order = append(order, pos)
		}
		sortByBound(order, bounds)
		prims.report(fspan)
		return prims, order, bounds, nil
	}

	// Sharded: each shard computes bounds for a contiguous position block
	// into disjoint slots of the shared bounds slice and sorts its own
	// run; runs are then merged. Bounders may keep per-query counters, so
	// every shard profiles the query into bounders of its own (O(|q|) per
	// touched segment, dwarfed by the per-shard O(n/S) bound pass).
	runs := make([][]int, S)
	var canceled atomic.Bool
	ix.pool.run(S, func(s int) {
		if canceled.Load() {
			return
		}
		sb := prims
		if s > 0 {
			sb = newSegBounders(cut, q)
		}
		sspan := fspan.StartChild(fmt.Sprintf("shard[%d]", s))
		lo, hi := shardRange(n, S, s)
		run := make([]int, 0, hi-lo)
		si := cut.segOf(lo)
		for pos := lo; pos < hi; pos++ {
			if (pos-lo)%ctxCheckEvery == 0 && (canceled.Load() || ctx.Err() != nil) {
				canceled.Store(true)
				sspan.SetBool("canceled", true)
				sspan.End()
				return
			}
			for pos >= cut.starts[si+1] {
				si++
			}
			local := pos - cut.starts[si]
			if cut.tombs.Has(cut.segs[si].ID(local)) {
				continue
			}
			bounds[pos] = sb.at(si).KNNBound(local)
			run = append(run, pos)
		}
		sortByBound(run, bounds)
		runs[s] = run
		sspan.SetInt("bounds", int64(len(run)))
		sb.report(sspan)
		sspan.End()
	})
	if canceled.Load() || ctx.Err() != nil {
		return prims, nil, nil, ctx.Err()
	}
	return prims, mergeRuns(runs, bounds), bounds, nil
}

// verifier is the refine stage's shared verification kernel: both query
// kinds funnel their exact-distance computations through it, so the
// bounded-verification logic — live cutoff, pre-checks, early abandoning,
// DP-cell accounting — lives in exactly one place. cutoff returns the
// threshold a distance must not exceed to matter for the answer: τ for
// range queries, the current k-th-best for k-NN. It is read once per
// verification, before the DP; for k-NN that read can be stale, but the
// threshold only ever decreases, so a stale value is merely a looser
// (still correct) cutoff.
type verifier struct {
	cut     *qcut
	q       *tree.Tree
	cutoff  func() int
	costOpt editdist.Option

	verified    atomic.Int64
	aborted     atomic.Int64
	prechecked  atomic.Int64
	dpCells     atomic.Int64
	dpCellsFull atomic.Int64
}

func (ix *Index) newVerifier(cut *qcut, q *tree.Tree, cutoff func() int) *verifier {
	return &verifier{
		cut: cut, q: q, cutoff: cutoff,
		costOpt: editdist.WithCost(ix.cost),
	}
}

// verify computes the edit distance between the query and the tree at
// global position pos. within reports whether d is the exact distance
// (it was ≤ the cutoff at verification time); when false, d is only a
// certified lower bound — the tree is provably too far to matter, which
// is all the engine needs.
func (v *verifier) verify(pos int) (si, local, gid, d int, within bool) {
	si, local, gid = v.cut.locate(pos)
	t := v.cut.treeOf(si, local)
	v.verified.Add(1)
	var m editdist.Metrics
	d, within = editdist.DistanceWithin(v.q, t, v.cutoff(), v.costOpt, editdist.WithMetrics(&m))
	if !within {
		if m.Precheck {
			v.prechecked.Add(1)
		} else {
			v.aborted.Add(1)
		}
	}
	v.dpCells.Add(m.Cells)
	v.dpCellsFull.Add(m.FullCells)
	return si, local, gid, d, within
}

// finish copies the verifier's counters into the query stats and the
// refine span. dp_cells is the dynamic-programming work the refine stage
// actually paid; dp_cells_full is what full verification of the same
// pairs would have cost — the paper's accessed-fraction measure, made
// cell-exact.
func (v *verifier) finish(stats *Stats, rspan *obs.Span) {
	stats.Verified = int(v.verified.Load())
	stats.RefineAborted = int(v.aborted.Load())
	stats.PrecheckRejects = int(v.prechecked.Load())
	stats.DPCells = v.dpCells.Load()
	stats.DPCellsFull = v.dpCellsFull.Load()
	rspan.SetInt("dp_cells", stats.DPCells)
	rspan.SetInt("dp_cells_full", stats.DPCellsFull)
	rspan.SetInt("aborted", int64(stats.RefineAborted))
	rspan.SetInt("precheck_rejects", int64(stats.PrecheckRejects))
}

// clampCutoff converts the k-NN atomic threshold to an editdist cutoff.
func clampCutoff(v int64) int {
	if v > int64(math.MaxInt) {
		return math.MaxInt
	}
	return int(v)
}

// refineKNN verifies candidates in ascending-bound order on the worker
// pool, maintaining the k-minimal (dist, id) heap under a mutex and the
// current k-th distance in an atomic that only ever decreases. Each task
// is pruned on its own bound: the cursor hands tasks out in ascending
// bound order and the threshold only decreases, so once one bound is above
// it every later task is pruned too. Pruning must not end the scan for
// all workers, because a stalled worker may still hold a lower-bound task
// it claimed earlier.
//
// The same threshold is the bounded verifier's cutoff: a candidate enters
// the heap only with d < top.Dist, or d == top.Dist on an id tie-break, so
// a distance proven > thresh can never change the answer, and while the
// heap is short the threshold is MaxInt64 — every verification is exact.
func (ix *Index) refineKNN(ctx context.Context, cut *qcut, q *tree.Tree, k int, order, bounds []int, prims *segBounders, stats *Stats, ex *Explain, rspan *obs.Span) ([]Result, error) {
	var (
		mu       sync.Mutex
		h        = &maxHeap{}
		canceled atomic.Bool
		thresh   atomic.Int64
	)
	thresh.Store(math.MaxInt64) // nothing prunes until the heap holds k
	ver := ix.newVerifier(cut, q, func() int { return clampCutoff(thresh.Load()) })

	ix.pool.run(len(order), func(j int) {
		pos := order[j]
		if canceled.Load() || int64(bounds[pos]) > thresh.Load() {
			return
		}
		// A verification can cost milliseconds, so check the context on
		// every task, not every ctxCheckEvery-th.
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		si, local, gid, d, within := ver.verify(pos)
		if !within {
			return
		}
		mu.Lock()
		sampleTightness(prims.at(si), stats, ex, local, gid, bounds[pos], d)
		switch {
		case h.Len() < k:
			heap.Push(h, Result{ID: gid, Dist: d})
			if h.Len() == k {
				thresh.Store(int64(h.top().Dist))
			}
		case d < h.top().Dist || (d == h.top().Dist && gid < h.top().ID):
			h.items[0] = Result{ID: gid, Dist: d}
			heap.Fix(h, 0)
			thresh.Store(int64(h.top().Dist))
		}
		mu.Unlock()
	})
	ver.finish(stats, rspan)
	if canceled.Load() {
		return nil, ctx.Err()
	}

	out := make([]Result, h.Len())
	copy(out, h.items)
	sortResults(out)
	return out, nil
}

// rangeq runs one range query (filter-and-refine, sharded across
// segments).
func (ix *Index) rangeq(ctx context.Context, q *tree.Tree, tau int, qc *queryConfig, ex *Explain) ([]Result, Stats, error) {
	cut := ix.cut()
	stats := Stats{Dataset: cut.live}
	if tau < 0 || cut.live == 0 {
		return nil, stats, nil
	}
	if ex != nil {
		ex.Segments = len(cut.segs)
	}

	span := qc.trace(ctx)

	start := time.Now()
	fspan := span.StartChild("filter")
	prims, candidates, candBounds, col, err := ix.filterRange(ctx, cut, q, tau, fspan, ex != nil)
	stats.FilterTime = time.Since(start)
	if err != nil {
		fspan.SetBool("canceled", true)
		fspan.End()
		return nil, stats, err
	}
	stats.Candidates = len(candidates)
	fspan.SetInt("candidates", int64(len(candidates)))
	fspan.SetInt("segments", int64(len(cut.segs)))
	fspan.End()
	if ex != nil {
		ex.Bounds = col.boundDist()
	}

	start = time.Now()
	rspan := span.StartChild("refine")
	out, err := ix.refineRange(ctx, cut, q, tau, candidates, candBounds, prims, &stats, ex, rspan)
	stats.RefineTime = time.Since(start)
	if err != nil {
		rspan.SetInt("verified", int64(stats.Verified))
		rspan.SetBool("canceled", true)
		rspan.End()
		return nil, stats, err
	}
	stats.Results = len(out)
	stats.FalsePositives = stats.Verified - len(out)
	rspan.SetInt("verified", int64(stats.Verified))
	rspan.SetInt("results", int64(len(out)))
	rspan.End()
	return out, stats, nil
}

// filterRange computes range bounds over the candidate domain — every
// visible position, or the sound superset the segments' CandidateListers
// enumerate — sharded when configured, returning the surviving candidates
// with their bounds (in deterministic domain order) and, when asked, the
// collected bound distribution.
func (ix *Index) filterRange(ctx context.Context, cut *qcut, q *tree.Tree, tau int, fspan *obs.Span, wantBounds bool) (*segBounders, []int, []int, *explainCollector, error) {
	prims := newSegBounders(cut, q)
	prims.materialize()

	// A segment's filter may enumerate a sound candidate superset directly
	// (e.g. through a VP-tree in BDist space) without touching every tree
	// of the segment. The walks run once, before sharding; the bound pass
	// over the pool is what shards. Segments without a lister contribute
	// their full position range.
	domain := cut.n
	var pool []int
	hasPool := false
	for si := range cut.segs {
		if _, ok := prims.at(si).(CandidateLister); ok {
			hasPool = true
			break
		}
	}
	if hasPool {
		vspan := fspan.StartChild("vptree")
		for si, sg := range cut.segs {
			if cl, ok := prims.at(si).(CandidateLister); ok {
				for _, local := range cl.RangeCandidates(tau) {
					pool = append(pool, cut.starts[si]+local)
				}
			} else {
				for local := 0; local < sg.Len(); local++ {
					pool = append(pool, cut.starts[si]+local)
				}
			}
		}
		vspan.SetInt("candidates", int64(len(pool)))
		vspan.End()
		domain = len(pool)
	}
	idAt := func(j int) int { return j }
	if hasPool {
		idAt = func(j int) int { return pool[j] }
	}

	S := ix.shardCount(domain)
	var col *explainCollector
	if wantBounds {
		col = &explainCollector{bounds: make([]int, 0, domain)}
	}

	if S <= 1 {
		var candidates, candBounds []int
		for j := 0; j < domain; j++ {
			if j%ctxCheckEvery == 0 && ctx.Err() != nil {
				return prims, nil, nil, nil, ctx.Err()
			}
			pos := idAt(j)
			si, local, gid := cut.locate(pos)
			if cut.tombs.Has(gid) {
				continue
			}
			rb := prims.at(si).RangeBound(local, tau)
			col.addBound(rb)
			if rb <= tau {
				candidates = append(candidates, pos)
				candBounds = append(candBounds, rb)
			}
		}
		prims.report(fspan)
		return prims, candidates, candBounds, col, nil
	}

	type shardOut struct {
		cands, bnds []int
		col         *explainCollector
	}
	outs := make([]shardOut, S)
	var canceled atomic.Bool
	ix.pool.run(S, func(s int) {
		if canceled.Load() {
			return
		}
		sb := prims
		if s > 0 {
			sb = newSegBounders(cut, q)
		}
		sspan := fspan.StartChild(fmt.Sprintf("shard[%d]", s))
		lo, hi := shardRange(domain, S, s)
		var o shardOut
		if wantBounds {
			o.col = &explainCollector{bounds: make([]int, 0, hi-lo)}
		}
		for j := lo; j < hi; j++ {
			if (j-lo)%ctxCheckEvery == 0 && (canceled.Load() || ctx.Err() != nil) {
				canceled.Store(true)
				sspan.SetBool("canceled", true)
				sspan.End()
				return
			}
			pos := idAt(j)
			si, local, gid := cut.locate(pos)
			if cut.tombs.Has(gid) {
				continue
			}
			rb := sb.at(si).RangeBound(local, tau)
			o.col.addBound(rb)
			if rb <= tau {
				o.cands = append(o.cands, pos)
				o.bnds = append(o.bnds, rb)
			}
		}
		outs[s] = o
		sspan.SetInt("bounds", int64(hi-lo))
		sb.report(sspan)
		sspan.End()
	})
	if canceled.Load() || ctx.Err() != nil {
		return prims, nil, nil, nil, ctx.Err()
	}

	// Concatenating in shard order reproduces the sequential domain
	// order, so the candidate list is byte-identical for every S.
	var candidates, candBounds []int
	for _, o := range outs {
		candidates = append(candidates, o.cands...)
		candBounds = append(candBounds, o.bnds...)
		if col != nil && o.col != nil {
			col.bounds = append(col.bounds, o.col.bounds...)
		}
	}
	return prims, candidates, candBounds, col, nil
}

// refineRange verifies every candidate on the worker pool. There is no
// early termination (the radius is fixed), so Verified — and, because the
// cutoff τ is the same for every candidate, the whole bounded-verification
// breakdown — is deterministic; the final sort makes the result order
// independent of worker timing.
func (ix *Index) refineRange(ctx context.Context, cut *qcut, q *tree.Tree, tau int, candidates, candBounds []int, prims *segBounders, stats *Stats, ex *Explain, rspan *obs.Span) ([]Result, error) {
	var (
		mu       sync.Mutex
		out      []Result
		canceled atomic.Bool
	)
	ver := ix.newVerifier(cut, q, func() int { return tau })
	ix.pool.run(len(candidates), func(j int) {
		if canceled.Load() {
			return
		}
		if ctx.Err() != nil {
			canceled.Store(true)
			return
		}
		si, local, gid, d, within := ver.verify(candidates[j])
		if !within {
			// Proven > τ; an inexact distance carries no tightness signal.
			return
		}
		mu.Lock()
		sampleTightness(prims.at(si), stats, ex, local, gid, candBounds[j], d)
		if d <= tau {
			out = append(out, Result{ID: gid, Dist: d})
		}
		mu.Unlock()
	})
	ver.finish(stats, rspan)
	if canceled.Load() {
		return nil, ctx.Err()
	}
	sortResults(out)
	return out, nil
}

// sortResults orders results by ascending (dist, id) — the canonical
// answer order every query method documents.
func sortResults(out []Result) {
	sort.Slice(out, func(x, y int) bool {
		if out[x].Dist != out[y].Dist {
			return out[x].Dist < out[y].Dist
		}
		return out[x].ID < out[y].ID
	})
}
