package search

import (
	"container/heap"
	"context"
	"reflect"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/editdist"
	"treesim/internal/tree"
)

func testDataset(n int, seed int64) []*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 14, SizeStd: 4, Labels: 5, Decay: 0.1}
	return datagen.New(spec, seed).Dataset(n, 5)
}

func allFilters() []Filter {
	return []Filter{
		NewBiBranch(),
		&BiBranch{Q: 2, Positional: false},
		&BiBranch{Q: 3, Positional: true},
		NewHisto(),
		NewSeq(),
		NewNone(),
	}
}

// TestKNNCompleteness: every filter returns exactly the sequential-scan
// k-NN answer (same distance multiset; the k-th place may tie arbitrarily).
func TestKNNCompleteness(t *testing.T) {
	ts := testDataset(60, 3)
	queries := []*tree.Tree{ts[0], ts[17], ts[59], testDataset(1, 77)[0]}
	base := NewIndex(ts, NewNone())
	for _, k := range []int{1, 3, 7} {
		for _, q := range queries {
			want, wantStats, _ := base.KNN(context.Background(), q, k)
			if wantStats.Verified != len(ts) {
				t.Fatalf("sequential scan verified %d, want all %d", wantStats.Verified, len(ts))
			}
			for _, f := range allFilters() {
				ix := NewIndex(ts, WithFilter(f))
				got, stats, _ := ix.KNN(context.Background(), q, k)
				if !sameDistances(got, want) {
					t.Fatalf("filter %s k=%d: distances %v, want %v",
						f.Name(), k, dists(got), dists(want))
				}
				if stats.Verified > len(ts) {
					t.Fatalf("filter %s verified more than the dataset", f.Name())
				}
			}
		}
	}
}

// TestRangeCompleteness: range queries return identical result sets for all
// filters (IDs and distances, not just distances).
func TestRangeCompleteness(t *testing.T) {
	ts := testDataset(60, 4)
	queries := []*tree.Tree{ts[2], ts[31], testDataset(1, 88)[0]}
	base := NewIndex(ts, NewNone())
	for _, tau := range []int{0, 1, 3, 6, 12} {
		for _, q := range queries {
			want, _, _ := base.Range(context.Background(), q, tau)
			for _, f := range allFilters() {
				got, stats, _ := NewIndex(ts, WithFilter(f)).Range(context.Background(), q, tau)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("filter %s tau=%d: results %v, want %v",
						f.Name(), tau, got, want)
				}
				if stats.Verified < len(got) {
					t.Fatalf("filter %s verified %d but returned %d results",
						f.Name(), stats.Verified, len(got))
				}
			}
		}
	}
}

// TestBiBranchPrunes: on a clustered dataset the BiBranch filter verifies
// strictly less than the sequential scan for selective queries.
func TestBiBranchPrunes(t *testing.T) {
	ts := testDataset(100, 5)
	q := ts[10]
	_, seq, _ := NewIndex(ts, NewNone()).KNN(context.Background(), q, 3)
	_, bib, _ := NewIndex(ts, NewBiBranch()).KNN(context.Background(), q, 3)
	if bib.Verified >= seq.Verified {
		t.Errorf("BiBranch verified %d, sequential %d — no pruning", bib.Verified, seq.Verified)
	}
	_, seqR, _ := NewIndex(ts, NewNone()).Range(context.Background(), q, 2)
	_, bibR, _ := NewIndex(ts, NewBiBranch()).Range(context.Background(), q, 2)
	if bibR.Verified >= seqR.Verified {
		t.Errorf("range: BiBranch verified %d, sequential %d", bibR.Verified, seqR.Verified)
	}
}

func TestKNNSelfQuery(t *testing.T) {
	ts := testDataset(30, 6)
	ix := NewIndex(ts, NewBiBranch())
	res, _, _ := ix.KNN(context.Background(), ts[7], 1)
	if len(res) != 1 || res[0].Dist != 0 {
		t.Fatalf("1-NN of a dataset member should be itself at distance 0, got %v", res)
	}
}

func TestKNNEdgeCases(t *testing.T) {
	ts := testDataset(10, 7)
	ix := NewIndex(ts, NewBiBranch())
	q := ts[0]
	if res, _, _ := ix.KNN(context.Background(), q, 0); res != nil {
		t.Error("k=0 should return nothing")
	}
	if res, _, _ := ix.KNN(context.Background(), q, 100); len(res) != len(ts) {
		t.Errorf("k>|D| should return all %d, got %d", len(ts), len(res))
	}
	empty := NewIndex(nil, NewBiBranch())
	if res, _, _ := empty.KNN(context.Background(), q, 3); res != nil {
		t.Error("empty index should return nothing")
	}
}

func TestRangeEdgeCases(t *testing.T) {
	ts := testDataset(10, 8)
	ix := NewIndex(ts, NewBiBranch())
	if res, _, _ := ix.Range(context.Background(), ts[0], -1); res != nil {
		t.Error("negative range should return nothing")
	}
	res, _, _ := ix.Range(context.Background(), ts[0], 0)
	found := false
	for _, r := range res {
		if r.ID == 0 {
			found = true
		}
		if r.Dist != 0 {
			t.Errorf("tau=0 returned distance %d", r.Dist)
		}
	}
	if !found {
		t.Error("tau=0 must return the query itself")
	}
}

func TestResultsSorted(t *testing.T) {
	ts := testDataset(50, 9)
	ix := NewIndex(ts, NewBiBranch())
	res, _, _ := ix.KNN(context.Background(), ts[3], 10)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("k-NN results not sorted by distance")
		}
	}
	resR, _, _ := ix.Range(context.Background(), ts[3], 8)
	for i := 1; i < len(resR); i++ {
		if resR[i].Dist < resR[i-1].Dist {
			t.Fatal("range results not sorted by distance")
		}
	}
}

func TestStats(t *testing.T) {
	ts := testDataset(40, 10)
	ix := NewIndex(ts, NewBiBranch())
	_, st, _ := ix.KNN(context.Background(), ts[0], 3)
	if st.Dataset != 40 {
		t.Errorf("Dataset = %d", st.Dataset)
	}
	if st.AccessedFraction() <= 0 || st.AccessedFraction() > 1 {
		t.Errorf("AccessedFraction = %f", st.AccessedFraction())
	}
	if st.Results != 3 {
		t.Errorf("Results = %d", st.Results)
	}
	var agg Stats
	agg.Add(st)
	agg.Add(st)
	if agg.Verified != 2*st.Verified || agg.Dataset != 80 {
		t.Error("Stats.Add broken")
	}
	if st.String() == "" || st.Total() < 0 {
		t.Error("Stats stringer/total broken")
	}
	if (Stats{}).AccessedFraction() != 0 {
		t.Error("empty stats fraction should be 0")
	}
}

// TestCustomCostModel: filtering stays complete under a cost model where
// every operation costs at least 1.
func TestCustomCostModel(t *testing.T) {
	ts := testDataset(30, 11)
	c := costModel{}
	seq := NewIndex(ts, NewNone(), WithCostModel(c))
	bib := NewIndex(ts, NewBiBranch(), WithCostModel(c))
	q := ts[5]
	want, _, _ := seq.Range(context.Background(), q, 6)
	got, _, _ := bib.Range(context.Background(), q, 6)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("custom-cost range results differ: %v vs %v", got, want)
	}
}

// costModel charges 2 for relabels and deletes, 1 for inserts — all ≥ 1,
// so unit-cost lower bounds remain valid.
type costModel struct{}

func (costModel) Relabel(a, b string) int {
	if a == b {
		return 0
	}
	return 2
}
func (costModel) Insert(string) int { return 1 }
func (costModel) Delete(string) int { return 2 }

func TestNilFilterDefaultsToSequential(t *testing.T) {
	ts := testDataset(10, 12)
	ix := NewIndex(ts, nil)
	if ix.Filter().Name() != "Sequential" {
		t.Errorf("nil filter resolved to %q", ix.Filter().Name())
	}
	if ix.Size() != 10 || ix.Tree(3) != ts[3] {
		t.Error("accessors broken")
	}
}

func sameDistances(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func dists(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Dist
	}
	return out
}

func TestFilterNames(t *testing.T) {
	names := map[Filter]string{
		NewBiBranch():                      "BiBranch",
		&BiBranch{Q: 2, Positional: false}: "BiBranch-nopos",
		NewHisto():                         "Histo",
		&Histo{Unbounded: true}:            "Histo-unbounded",
		NewSeq():                           "Seq",
		NewNone():                          "Sequential",
		NewPivotBiBranch():                 "BiBranch-pivot",
		NewVPBiBranch():                    "BiBranch-vptree",
	}
	for f, want := range names {
		if f.Name() != want {
			t.Errorf("Name = %q, want %q", f.Name(), want)
		}
	}
}

// TestBiBranchDefaultQ: the zero value of Q selects the paper's two-level
// branches.
func TestBiBranchDefaultQ(t *testing.T) {
	f := &BiBranch{Positional: true}
	f.Index(testDataset(5, 30))
	if f.Space().Q() != 2 {
		t.Errorf("default Q resolved to %d", f.Space().Q())
	}
	if len(f.Profiles()) != 5 {
		t.Errorf("Profiles() returned %d", len(f.Profiles()))
	}
}

// TestHistoUnboundedCompleteness: the unbounded histogram variant is also
// a complete filter.
func TestHistoUnboundedCompleteness(t *testing.T) {
	ts := testDataset(40, 31)
	want, _, _ := NewIndex(ts, NewNone()).Range(context.Background(), ts[3], 4)
	got, _, _ := NewIndex(ts, &Histo{Unbounded: true}).Range(context.Background(), ts[3], 4)
	if !reflect.DeepEqual(got, want) {
		t.Error("unbounded Histo lost results")
	}
}

func TestMaxHeapInterface(t *testing.T) {
	h := &maxHeap{}
	heap.Push(h, Result{ID: 1, Dist: 5})
	heap.Push(h, Result{ID: 2, Dist: 9})
	heap.Push(h, Result{ID: 3, Dist: 1})
	if h.top().Dist != 9 {
		t.Errorf("top = %d, want 9", h.top().Dist)
	}
	if got := heap.Pop(h).(Result); got.Dist != 9 {
		t.Errorf("Pop = %d, want 9", got.Dist)
	}
	if h.top().Dist != 5 {
		t.Errorf("after pop top = %d, want 5", h.top().Dist)
	}
}

// TestKNNAgainstBruteforce cross-checks distances returned by KNN against
// direct edit distance computation.
func TestKNNDistancesExact(t *testing.T) {
	ts := testDataset(25, 13)
	ix := NewIndex(ts, NewBiBranch())
	q := testDataset(1, 14)[0]
	res, _, _ := ix.KNN(context.Background(), q, 5)
	for _, r := range res {
		if want := editdist.Distance(q, ts[r.ID]); r.Dist != want {
			t.Errorf("result %d: distance %d, want %d", r.ID, r.Dist, want)
		}
	}
}
