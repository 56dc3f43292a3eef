package search

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"treesim/internal/editdist"
	"treesim/internal/tree"
)

// bruteAnswers computes the exact (dist, id)-ordered answers over the
// visible trees: the ground truth every segment layout must reproduce.
func bruteAnswers(trees map[int]*tree.Tree, q *tree.Tree) []Result {
	var out []Result
	for id, t := range trees {
		out = append(out, Result{ID: id, Dist: editdist.Distance(q, t)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func bruteKNNAnswers(trees map[int]*tree.Tree, q *tree.Tree, k int) []Result {
	all := bruteAnswers(trees, q)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func bruteRangeAnswers(trees map[int]*tree.Tree, q *tree.Tree, tau int) []Result {
	var out []Result
	for _, r := range bruteAnswers(trees, q) {
		if r.Dist <= tau {
			out = append(out, r)
		}
	}
	return out
}

// TestSegmentLayoutInvariance is the storage engine's core correctness
// property: the physical layout of the dataset — one base segment, many
// small segments before compaction, one merged segment after — never
// changes a query's (dist, id) answers, for every filter family and
// shard count, with tombstoned ids never appearing.
func TestSegmentLayoutInvariance(t *testing.T) {
	const n = 60
	all := testDataset(n, 71)
	deleted := []int{2, 13, 27, 39, 59}
	tombed := make(map[int]bool)
	for _, id := range deleted {
		tombed[id] = true
	}
	visible := make(map[int]*tree.Tree)
	for id, tr := range all {
		if !tombed[id] {
			visible[id] = tr
		}
	}
	queries := append([]*tree.Tree{all[0], all[27], all[50]}, testDataset(2, 72)...)

	filters := map[string]func() Filter{
		"BiBranch": func() Filter { return NewBiBranch() },
		"Pivot":    func() Filter { return NewPivotBiBranch() },
		"VP":       func() Filter { return NewVPBiBranch() },
		"Histo":    func() Filter { return NewHisto() },
	}
	layouts := map[string]func(mk func() Filter, shards int) *Index{
		"one-segment": func(mk func() Filter, shards int) *Index {
			return NewIndex(all, WithFilter(mk()), WithShards(shards))
		},
		"multi-segment": func(mk func() Filter, shards int) *Index {
			ix := NewIndex(all[:10], WithFilter(mk()), WithShards(shards),
				WithMemtableSize(7), WithCompactionThreshold(-1))
			for _, tr := range all[10:] {
				ix.Insert(tr)
			}
			return ix
		},
		"compacted": func(mk func() Filter, shards int) *Index {
			ix := NewIndex(all[:10], WithFilter(mk()), WithShards(shards),
				WithMemtableSize(7), WithCompactionThreshold(-1))
			for _, tr := range all[10:] {
				ix.Insert(tr)
			}
			ix.Seal()
			if !ix.Compact() {
				t.Fatal("compaction did not run")
			}
			return ix
		},
	}

	for fname, mk := range filters {
		for lname, build := range layouts {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/shards=%d", fname, lname, shards)
				ix := build(mk, shards)
				for _, id := range deleted {
					if !ix.Delete(id) {
						t.Fatalf("%s: delete %d refused", name, id)
					}
				}
				if lname == "compacted" {
					// Deleting after the first compaction and compacting again
					// exercises tombstone resolution too.
					if !ix.Compact() {
						t.Fatalf("%s: second compaction did not run", name)
					}
				}
				if ix.Live() != n-len(deleted) {
					t.Fatalf("%s: live %d, want %d", name, ix.Live(), n-len(deleted))
				}
				for qi, q := range queries {
					got, _, _ := ix.KNN(context.Background(), q, 5)
					want := bruteKNNAnswers(visible, q, 5)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: query %d KNN = %v, want %v", name, qi, got, want)
					}
					gr, _, _ := ix.Range(context.Background(), q, 3)
					wr := bruteRangeAnswers(visible, q, 3)
					if len(gr) == 0 && len(wr) == 0 {
						continue
					}
					if !reflect.DeepEqual(gr, wr) {
						t.Fatalf("%s: query %d Range = %v, want %v", name, qi, gr, wr)
					}
					for _, r := range append(got, gr...) {
						if tombed[r.ID] {
							t.Fatalf("%s: tombstoned id %d in results", name, r.ID)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedStatsAndExplain: the merged stats and EXPLAIN record of a
// multi-segment query describe the whole cut — visible dataset size,
// segment count, and bounds from every segment.
func TestSegmentedStatsAndExplain(t *testing.T) {
	all := testDataset(30, 73)
	ix := NewIndex(all[:10], NewBiBranch(), WithMemtableSize(8), WithCompactionThreshold(-1))
	for _, tr := range all[10:] {
		ix.Insert(tr)
	}
	ix.Delete(4)
	var ex *Explain
	res, stats, err := ix.KNN(context.Background(), all[20], 3, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if stats.Dataset != 29 {
		t.Fatalf("stats.Dataset = %d, want 29 (live)", stats.Dataset)
	}
	if ex.Segments < 2 {
		t.Fatalf("explain.Segments = %d, want ≥ 2", ex.Segments)
	}
	if ex.Bounds.Computed != 29 {
		t.Fatalf("explain bounds over %d trees, want 29", ex.Bounds.Computed)
	}
}

// TestEpochAdvancesOnWrites: the epoch — the query-cache invalidation
// key — moves on inserts, deletes, seals and compactions, and stays put
// across pure queries.
func TestEpochAdvancesOnWrites(t *testing.T) {
	ix := NewIndex(testDataset(10, 74), NewBiBranch(), WithMemtableSize(4), WithCompactionThreshold(-1))
	e0 := ix.Epoch()
	ix.KNN(context.Background(), testDataset(1, 75)[0], 2)
	if ix.Epoch() != e0 {
		t.Fatal("query advanced the epoch")
	}
	ix.Insert(testDataset(1, 76)[0])
	e1 := ix.Epoch()
	if e1 <= e0 {
		t.Fatal("insert did not advance the epoch")
	}
	ix.Delete(3)
	e2 := ix.Epoch()
	if e2 <= e1 {
		t.Fatal("delete did not advance the epoch")
	}
	ix.Seal()
	e3 := ix.Epoch()
	if e3 <= e2 {
		t.Fatal("seal did not advance the epoch")
	}
	if !ix.Compact() {
		t.Fatal("compaction did not run")
	}
	if ix.Epoch() <= e3 {
		t.Fatal("compaction did not advance the epoch")
	}
}
