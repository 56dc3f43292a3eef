package search

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"treesim/internal/obs"
	"treesim/internal/tree"
)

// shardCounts are the shard configurations the invariance tests sweep:
// forced-sequential, a couple of odd splits, and the GOMAXPROCS default.
var shardCounts = []int{1, 2, 7, 0}

// shardFilters returns a fresh instance of every filter family, including
// the global-structure ones (pivot tables, VP-tree) that exercise the
// CandidateLister path.
func shardFilters() []Filter {
	return append(allFilters(), NewPivotBiBranch(), NewVPBiBranch())
}

// TestShardCountInvarianceKNN: k-NN answers — results including tie order,
// and every execution-independent counter — are identical for every shard
// count. Verified is deliberately not compared: opportunistic pruning makes
// it timing-dependent (see the engine doc comment).
func TestShardCountInvarianceKNN(t *testing.T) {
	ts := testDataset(80, 31)
	queries := []*tree.Tree{ts[0], ts[41], testDataset(1, 99)[0]}
	for _, f := range shardFilters() {
		base := NewIndex(ts, WithFilter(f), WithShards(1))
		for _, q := range queries {
			for _, k := range []int{1, 4, 11} {
				want, wantStats, err := base.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range shardCounts[1:] {
					ix := NewIndex(ts, WithFilter(freshFilter(f)), WithShards(s), WithRefineWorkers(8))
					got, stats, err := ix.KNN(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d k=%d: results %v, want %v", f.Name(), s, k, got, want)
					}
					if stats.Candidates != wantStats.Candidates ||
						stats.Results != wantStats.Results ||
						stats.Dataset != wantStats.Dataset {
						t.Fatalf("%s S=%d k=%d: stats %+v, want %+v", f.Name(), s, k, stats, wantStats)
					}
				}
			}
		}
	}
}

// TestShardCountInvarianceRange: range answers and every counter —
// including Verified, which has no early exit — are identical for every
// shard count.
func TestShardCountInvarianceRange(t *testing.T) {
	ts := testDataset(80, 32)
	queries := []*tree.Tree{ts[3], ts[77]}
	for _, f := range shardFilters() {
		base := NewIndex(ts, WithFilter(f), WithShards(1))
		for _, q := range queries {
			for _, tau := range []int{0, 2, 5} {
				want, wantStats, err := base.Range(context.Background(), q, tau)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range shardCounts[1:] {
					ix := NewIndex(ts, WithFilter(freshFilter(f)), WithShards(s), WithRefineWorkers(8))
					got, stats, err := ix.Range(context.Background(), q, tau)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d tau=%d: results %v, want %v", f.Name(), s, tau, got, want)
					}
					if stats.Candidates != wantStats.Candidates ||
						stats.Verified != wantStats.Verified ||
						stats.Results != wantStats.Results ||
						stats.FalsePositives != wantStats.FalsePositives {
						t.Fatalf("%s S=%d tau=%d: stats %+v, want %+v", f.Name(), s, tau, stats, wantStats)
					}
				}
			}
		}
	}
}

// freshFilter rebuilds a filter of the same configuration so each index
// gets its own instance (filters hold per-dataset state).
func freshFilter(f Filter) Filter {
	switch v := f.(type) {
	case *BiBranch:
		return &BiBranch{Q: v.Q, Positional: v.Positional}
	case *Histo:
		return &Histo{Config: v.Config, Unbounded: v.Unbounded}
	case *Seq:
		return NewSeq()
	case *None:
		return NewNone()
	case *PivotBiBranch:
		return &PivotBiBranch{Q: v.Q, Pivots: v.Pivots, Positional: v.Positional}
	case *VPBiBranch:
		return &VPBiBranch{Q: v.Q, Positional: v.Positional, Seed: v.Seed}
	}
	return f
}

// TestShardEdgeCases: clamping and degenerate domains behave identically
// across shard counts — k beyond the dataset, more shards than trees,
// a radius that prunes every candidate, and duplicate trees tying at the
// k-th distance.
func TestShardEdgeCases(t *testing.T) {
	ts := testDataset(10, 33)
	// Duplicate a tree several times so distance ties at the k-th place are
	// guaranteed and the canonical (dist, id) order is observable.
	ts = append(ts, ts[4], ts[4], ts[4])

	for _, s := range shardCounts {
		ix := NewIndex(ts, NewBiBranch(), WithShards(s), WithRefineWorkers(8))

		// k far beyond the dataset: all trees come back, sorted (dist, id).
		res, stats, err := ix.KNN(context.Background(), ts[4], 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(ts) || stats.Results != len(ts) {
			t.Fatalf("S=%d: k>n returned %d of %d", s, len(res), len(ts))
		}
		for i := 1; i < len(res); i++ {
			if res[i-1].Dist > res[i].Dist ||
				(res[i-1].Dist == res[i].Dist && res[i-1].ID >= res[i].ID) {
				t.Fatalf("S=%d: results not in canonical (dist, id) order: %v", s, res)
			}
		}
		// The three duplicates of ts[4] plus itself are all at distance 0,
		// and k=2 must keep the two smallest ids among them.
		top2, _, _ := ix.KNN(context.Background(), ts[4], 2)
		want := []Result{{ID: 4, Dist: 0}, {ID: 10, Dist: 0}}
		if !reflect.DeepEqual(top2, want) {
			t.Fatalf("S=%d: tie at k not broken by id: %v, want %v", s, top2, want)
		}

		// A query far from everything with tau 0 prunes every candidate.
		far := tree.MustParse("zz(zz(zz(zz)))")
		rres, rstats, err := ix.Range(context.Background(), far, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rres) != 0 || rstats.Results != 0 {
			t.Fatalf("S=%d: all-pruned range returned %v", s, rres)
		}
	}

	// More shards than trees: the count clamps to the dataset size.
	tiny := NewIndex(ts[:2], NewBiBranch(), WithShards(64))
	res, _, err := tiny.KNN(context.Background(), ts[0], 2)
	if err != nil || len(res) != 2 {
		t.Fatalf("S>n: res=%v err=%v", res, err)
	}
	// Empty dataset stays a no-op under any shard count.
	empty := NewIndex(nil, NewBiBranch(), WithShards(4))
	if res, _, _ := empty.KNN(context.Background(), ts[0], 3); res != nil {
		t.Fatalf("empty dataset returned %v", res)
	}
}

// TestShardHammer drives many concurrent queries through a deliberately
// over-sharded index so the worker pool, the atomic threshold and the span
// plumbing race against each other; run under -race this is the engine's
// data-race certificate. Results are checked against a sequential index.
func TestShardHammer(t *testing.T) {
	ts := testDataset(60, 34)
	ix := NewIndex(ts, NewBiBranch(), WithShards(7), WithRefineWorkers(8))
	seq := NewIndex(ts, NewBiBranch(), WithShards(1))
	queries := []*tree.Tree{ts[1], ts[30], ts[59], testDataset(1, 5)[0]}

	wantK := make([][]Result, len(queries))
	wantR := make([][]Result, len(queries))
	for i, q := range queries {
		wantK[i], _, _ = seq.KNN(context.Background(), q, 5)
		wantR[i], _, _ = seq.Range(context.Background(), q, 3)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				i := (w + it) % len(queries)
				got, _, err := ix.KNN(context.Background(), queries[i], 5)
				if err != nil || !reflect.DeepEqual(got, wantK[i]) {
					errs <- "knn diverged under concurrency"
					return
				}
				gotR, _, err := ix.Range(context.Background(), queries[i], 3)
				if err != nil || !reflect.DeepEqual(gotR, wantR[i]) {
					errs <- "range diverged under concurrency"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestMergeRuns: the run merge reproduces a global (bound, id) sort.
func TestMergeRuns(t *testing.T) {
	bounds := []int{5, 1, 3, 1, 4, 0, 3, 2}
	runs := [][]int{{1, 2, 0}, {5, 3}, {7, 6, 4}}
	for _, r := range runs {
		sortByBound(r, bounds)
	}
	got := mergeRuns(runs, bounds)
	want := make([]int, len(bounds))
	for i := range want {
		want[i] = i
	}
	sortByBound(want, bounds)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergeRuns = %v, want %v", got, want)
	}
}

// TestKNNClaimedTaskNotDropped pins per-task pruning in the parallel k-NN
// refine: a worker stalled between claiming task 0 (the query's own
// distance-0 match) and running it must still verify that task after the
// other worker has filled the heap and claimed every remaining task, some
// with bounds above the threshold.
func TestKNNClaimedTaskNotDropped(t *testing.T) {
	ts := testDataset(60, 53)
	q := ts[3]
	visible := make(map[int]*tree.Tree, len(ts))
	for id, tr := range ts {
		visible[id] = tr
	}
	want := bruteKNNAnswers(visible, q, 1)
	for _, f := range shardFilters() {
		ix := NewIndex(ts, WithFilter(freshFilter(f)), WithShards(1), WithRefineWorkers(2))
		lastClaimed := make(chan struct{})
		ix.pool.claimed = func(task, n int) {
			if n == 1 {
				return // the single-shard filter stage
			}
			if task == n-1 {
				close(lastClaimed)
			}
			if task == 0 {
				<-lastClaimed
			}
		}
		got, _, err := ix.KNN(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %v, brute force %v", f.Name(), got, want)
		}
	}
}

// TestIndexOptionAccessors: shard and worker settings survive construction
// and are visible through the accessors.
func TestIndexOptionAccessors(t *testing.T) {
	ix := NewIndex(testDataset(5, 36), NewBiBranch(), WithShards(3), WithRefineWorkers(2))
	if ix.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3", ix.Shards())
	}
	if ix.RefineWorkers() != 2 {
		t.Errorf("RefineWorkers() = %d, want 2", ix.RefineWorkers())
	}
}

// TestShardSpans: a query forced over several shards hangs shard[i]
// children off its filter span, each reporting its bound count, and the
// filter span still carries the global candidate total.
func TestShardSpans(t *testing.T) {
	ts := testDataset(50, 37)
	ix := NewIndex(ts, NewBiBranch(), WithShards(4), WithRefineWorkers(4))

	root := obs.New("query")
	_, _, err := ix.KNN(context.Background(), ts[2], 3, WithTrace(root))
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	snap := root.Snapshot()

	var filter *obs.SpanSnapshot
	for i := range snap.Children {
		if snap.Children[i].Name == "filter" {
			filter = &snap.Children[i]
		}
	}
	if filter == nil {
		t.Fatalf("no filter span in %+v", snap)
	}
	if got := filter.Attrs["candidates"]; got != int64(len(ts)) {
		t.Errorf("filter candidates %v, want %d", got, len(ts))
	}
	total := int64(0)
	shards := 0
	for _, c := range filter.Children {
		if len(c.Name) >= 5 && c.Name[:5] == "shard" {
			shards++
			b, _ := c.Attrs["bounds"].(int64)
			total += b
		}
	}
	if shards != 4 {
		t.Fatalf("filter has %d shard children, want 4: %+v", shards, filter)
	}
	if total != int64(len(ts)) {
		t.Errorf("shard bounds sum %d, want %d", total, len(ts))
	}
}
