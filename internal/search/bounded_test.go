package search

import (
	"context"
	"reflect"
	"testing"

	"treesim/internal/tree"
)

// TestBoundedRefineInvariance is the bounded verification engine's
// exactness certificate: across every filter family, several shard counts
// and both query kinds, refining against the live cutoff returns exactly
// the brute-force answers, and the deterministic range counters are the
// same for every shard count.
func TestBoundedRefineInvariance(t *testing.T) {
	ts := testDataset(90, 53)
	visible := make(map[int]*tree.Tree, len(ts))
	for id, tr := range ts {
		visible[id] = tr
	}
	queries := []*tree.Tree{ts[3], ts[60], testDataset(1, 77)[0]}
	for _, f := range shardFilters() {
		base := map[[2]int]Stats{} // range stats at S=1, by (query, tau)
		for _, S := range []int{1, 3, 0} {
			ix := NewIndex(ts, WithFilter(freshFilter(f)), WithShards(S))
			for qi, q := range queries {
				for _, k := range []int{1, 5, 12} {
					got, st, err := ix.KNN(context.Background(), q, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := bruteKNNAnswers(visible, q, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d q=%d k=%d: got %v, brute force %v", f.Name(), S, qi, k, got, want)
					}
					if st.DPCells > st.DPCellsFull {
						t.Fatalf("%s S=%d q=%d k=%d: touched %d cells > full %d",
							f.Name(), S, qi, k, st.DPCells, st.DPCellsFull)
					}
				}
				for _, tau := range []int{0, 2, 6} {
					got, st, err := ix.Range(context.Background(), q, tau)
					if err != nil {
						t.Fatal(err)
					}
					if want := bruteRangeAnswers(visible, q, tau); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s S=%d q=%d tau=%d: got %v, brute force %v", f.Name(), S, qi, tau, got, want)
					}
					key := [2]int{qi, tau}
					if b, ok := base[key]; !ok {
						base[key] = st
					} else if st.Verified != b.Verified ||
						st.Candidates != b.Candidates ||
						st.Results != b.Results ||
						st.FalsePositives != b.FalsePositives {
						t.Fatalf("%s S=%d q=%d tau=%d: stats %+v, want %+v (S=1)",
							f.Name(), S, qi, tau, st, b)
					}
					if st.Verified > 0 && st.DPCells >= st.DPCellsFull &&
						st.RefineAborted+st.PrecheckRejects > 0 {
						t.Fatalf("%s S=%d q=%d tau=%d: rejections without cell savings: %+v",
							f.Name(), S, qi, tau, st)
					}
				}
			}
		}
	}
}

// TestBoundedRefineCountersFire: on a realistic workload the bounded
// engine must actually exercise both cut-short paths — pre-check
// rejections and DP early aborts — and touch strictly fewer cells than
// full verification would. (The exact split is data-dependent; firing at
// all is the regression being pinned.)
func TestBoundedRefineCountersFire(t *testing.T) {
	ts := testDataset(200, 9)
	ix := NewIndex(ts, NewBiBranch())
	var agg Stats
	for qi := 0; qi < 8; qi++ {
		_, st, err := ix.KNN(context.Background(), ts[qi*20], 3)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
		_, st, err = ix.Range(context.Background(), ts[qi*20+7], 2)
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
	}
	if agg.PrecheckRejects == 0 {
		t.Errorf("no pre-check rejections across the workload: %+v", agg)
	}
	if agg.RefineAborted == 0 {
		t.Errorf("no DP early aborts across the workload: %+v", agg)
	}
	if agg.DPCells >= agg.DPCellsFull {
		t.Errorf("bounded refine touched %d of %d full cells; want strictly fewer", agg.DPCells, agg.DPCellsFull)
	}
}
