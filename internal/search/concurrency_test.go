package search

import (
	"context"
	"io"
	"sync"
	"testing"

	"treesim/internal/tree"
)

// TestConcurrentInsertQuery hammers one index with inserts, k-NN queries,
// range queries, metadata reads and snapshot saves from many goroutines at
// once. Run under -race (the CI gate does) it proves Index's locking: no
// torn reads of the tree/profile slices, no lost inserts.
func TestConcurrentInsertQuery(t *testing.T) {
	base := testDataset(40, 60)
	extra := testDataset(120, 61)
	queries := testDataset(6, 62)
	ix := NewIndex(base, NewBiBranch())

	var wg sync.WaitGroup
	// 4 inserters, 30 trees each.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, tr := range extra[w*30 : (w+1)*30] {
				if _, err := ix.Insert(tr); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(w)
	}
	// 4 k-NN queriers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				res, stats, _ := ix.KNN(context.Background(), queries[w%len(queries)], 3)
				if len(res) != 3 || stats.Dataset < len(base) {
					t.Errorf("KNN under load: %d results, dataset %d", len(res), stats.Dataset)
					return
				}
			}
		}(w)
	}
	// 2 range queriers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				_, stats, _ := ix.Range(context.Background(), queries[(w+3)%len(queries)], 2)
				if stats.Dataset < len(base) {
					t.Errorf("Range under load: dataset %d", stats.Dataset)
					return
				}
			}
		}(w)
	}
	// 2 metadata readers.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := ix.Size()
				if tr, ok := ix.TreeAt(n - 1); !ok || tr.IsEmpty() {
					t.Errorf("TreeAt(%d) failed under load", n-1)
					return
				}
			}
		}()
	}
	// 1 snapshotter saving while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := SaveIndex(io.Discard, ix); err != nil {
				t.Errorf("SaveIndex under load: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if got, want := ix.Size(), len(base)+len(extra); got != want {
		t.Fatalf("after concurrent inserts: size %d, want %d", got, want)
	}
	// The hammered index answers like a cleanly rebuilt one.
	all := append(append([]*tree.Tree(nil), base...), extra...)
	clean := NewIndex(all, NewBiBranch())
	for _, q := range queries {
		a, _, _ := ix.KNN(context.Background(), q, 5)
		b, _, _ := clean.KNN(context.Background(), q, 5)
		if !sameDistances(a, b) {
			t.Fatalf("hammered index KNN %v, clean rebuild %v", dists(a), dists(b))
		}
	}
}

// TestQueryContextCanceled: a canceled context aborts both query kinds
// with ctx.Err() and no results.
func TestQueryContextCanceled(t *testing.T) {
	ix := NewIndex(testDataset(30, 63), NewBiBranch())
	q := testDataset(1, 64)[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, _, err := ix.KNN(ctx, q, 3); err != context.Canceled || res != nil {
		t.Fatalf("KNN on canceled ctx: res=%v err=%v", res, err)
	}
	if res, _, err := ix.Range(ctx, q, 2); err != context.Canceled || res != nil {
		t.Fatalf("Range on canceled ctx: res=%v err=%v", res, err)
	}
}

// TestQueryContextComplete: a live, cancelable context leaves results
// identical to a background one.
func TestQueryContextComplete(t *testing.T) {
	ts := testDataset(40, 65)
	ix := NewIndex(ts, NewBiBranch())
	q := ts[7]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, _, err := ix.KNN(ctx, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := ix.KNN(context.Background(), q, 4)
	if !sameDistances(a, b) {
		t.Fatalf("live-context KNN %v != background KNN %v", dists(a), dists(b))
	}
}
