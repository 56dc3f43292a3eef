package editdist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/datagen"
	"treesim/internal/tree"
)

// checkWithin asserts the DistanceWithin contract for one (pair, cutoff):
// agreement with the full distance when within, a certified lower bound
// otherwise.
func checkWithin(t *testing.T, t1, t2 *tree.Tree, cutoff int, opts ...Option) {
	t.Helper()
	full := Distance(t1, t2, opts...)
	d, ok := DistanceWithin(t1, t2, cutoff, opts...)
	if full <= cutoff {
		if !ok || d != full {
			t.Fatalf("DistanceWithin(%q,%q,%d) = (%d,%v), want (%d,true)",
				t1, t2, cutoff, d, ok, full)
		}
	} else {
		if ok {
			t.Fatalf("DistanceWithin(%q,%q,%d) = (%d,true), but full distance is %d",
				t1, t2, cutoff, d, full)
		}
		if d <= cutoff || d > full {
			t.Fatalf("DistanceWithin(%q,%q,%d) lower bound %d outside (%d,%d]",
				t1, t2, cutoff, d, cutoff, full)
		}
	}
}

// TestDistanceWithinAgainstBruteForce: on small random trees, exhaustively
// sweep cutoffs around the brute-force distance and check the bounded
// program lands on the right side every time, under unit costs.
func TestDistanceWithinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		t1 := smallRandomTree(rng, 7, alphabet)
		t2 := smallRandomTree(rng, 7, alphabet)
		bf := BruteForce(t1, t2, UnitCost{})
		if full := Distance(t1, t2); full != bf {
			t.Fatalf("trial %d: Distance(%q,%q) = %d, brute force = %d", trial, t1, t2, full, bf)
		}
		for cutoff := 0; cutoff <= bf+3; cutoff++ {
			checkWithin(t, t1, t2, cutoff)
		}
	}
}

// bandedWeighted is a non-unit model that reports its per-operation
// minimum, unlocking the pre-checks and the diagonal band.
type bandedWeighted struct{ weighted }

func (w bandedWeighted) MinOpCost() int {
	m := w.rel
	if w.ins < m {
		m = w.ins
	}
	if w.del < m {
		m = w.del
	}
	return m
}

// TestDistanceWithinCustomCosts repeats the brute-force sweep under two
// non-unit models: one opaque (frontier abandoning only) and one
// reporting MinOpCost (pre-checks + band).
func TestDistanceWithinCustomCosts(t *testing.T) {
	models := []CostModel{
		weighted{rel: 3, ins: 2, del: 5},
		bandedWeighted{weighted{rel: 3, ins: 2, del: 5}},
	}
	for mi, c := range models {
		rng := rand.New(rand.NewSource(int64(100 + mi)))
		alphabet := []string{"a", "b"}
		for trial := 0; trial < 100; trial++ {
			t1 := smallRandomTree(rng, 6, alphabet)
			t2 := smallRandomTree(rng, 6, alphabet)
			bf := BruteForce(t1, t2, c)
			for cutoff := 0; cutoff <= bf+4; cutoff += 1 + cutoff/3 {
				checkWithin(t, t1, t2, cutoff, WithCost(c))
			}
		}
	}
}

// TestDistanceWithinRandomDatasets: dataset-scale random pairs (the sizes
// the search engine actually verifies), cutoffs spread from far below to
// above the true distance.
func TestDistanceWithinRandomDatasets(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 24, SizeStd: 8, Labels: 5, Decay: 0.1}
	ts := datagen.New(spec, 17).Dataset(40, 5)
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 120; trial++ {
		t1 := ts[rng.Intn(len(ts))]
		t2 := ts[rng.Intn(len(ts))]
		full := Distance(t1, t2)
		for _, cutoff := range []int{0, 1, full / 2, full - 1, full, full + 1, full + 10} {
			if cutoff < 0 {
				continue
			}
			checkWithin(t, t1, t2, cutoff)
		}
	}
}

// chain builds a deep/skinny tree: a single path of depth n.
func chain(n int, labels []string) *tree.Tree {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(labels[i%len(labels)])
		if i < n-1 {
			b.WriteByte('(')
		}
	}
	b.WriteString(strings.Repeat(")", n-1))
	return tree.MustParse(b.String())
}

// star builds a wide/flat tree: a root with n-1 leaves.
func star(n int, labels []string) *tree.Tree {
	leaves := make([]string, n-1)
	for i := range leaves {
		leaves[i] = labels[i%len(labels)]
	}
	return tree.MustParse(fmt.Sprintf("%s(%s)", labels[0], strings.Join(leaves, ",")))
}

// TestDistanceWithinAdversarialShapes: deep/skinny and wide/flat trees are
// RTED's motivating cases where Zhang–Shasha's decomposition degenerates;
// the bounded program must stay exact there, and the pre-checks must
// reject chain-vs-star pairs (huge height delta) without any DP.
func TestDistanceWithinAdversarialShapes(t *testing.T) {
	labels := []string{"a", "b", "c"}
	shapes := []*tree.Tree{
		chain(17, labels), chain(18, []string{"b", "c"}),
		star(17, labels), star(19, []string{"c", "a"}),
		tree.MustParse("a(b(c(d,e),f),g(h))"),
	}
	for _, t1 := range shapes {
		for _, t2 := range shapes {
			full := Distance(t1, t2)
			for _, cutoff := range []int{0, 2, full - 1, full, full + 1} {
				if cutoff < 0 {
					continue
				}
				checkWithin(t, t1, t2, cutoff)
			}
		}
	}
	// Chain vs star: heights 17 vs 2, so any cutoff < 15 must be decided
	// by the height pre-check alone.
	var m Metrics
	d, ok := DistanceWithin(chain(17, labels), star(17, labels), 10, WithMetrics(&m))
	if ok || !m.Precheck || m.Cells != 0 {
		t.Fatalf("chain-vs-star: got (%d,%v) precheck=%v cells=%d, want precheck rejection with 0 cells",
			d, ok, m.Precheck, m.Cells)
	}
	if d <= 10 {
		t.Fatalf("chain-vs-star: lower bound %d not above the cutoff", d)
	}
}

// chainOf builds a single path carrying exactly the given labels, root
// to leaf.
func chainOf(labels []string) *tree.Tree {
	return tree.MustParse(strings.Join(labels, "(") + strings.Repeat(")", len(labels)-1))
}

// TestDistanceWithinMetrics pins the accounting contract: full calls
// touch exactly FullCells, bounded calls strictly fewer on prunable
// pairs, and the Precheck/Aborted flags identify how a rejection was
// proven.
func TestDistanceWithinMetrics(t *testing.T) {
	// Two chains with the same label multiset (two interior labels
	// swapped): identical size, height and histogram defeat every
	// pre-check, so the DP has to do the proving.
	labs1 := make([]string, 16)
	for i := range labs1 {
		labs1[i] = []string{"a", "b", "c"}[i%3]
	}
	labs2 := append([]string(nil), labs1...)
	labs2[5], labs2[9] = labs2[9], labs2[5]
	t1 := chainOf(labs1)
	t2 := chainOf(labs2)

	var full Metrics
	d := Distance(t1, t2, WithMetrics(&full))
	if d == 0 {
		t.Fatal("permuted chains at distance 0")
	}
	if full.Cells != full.FullCells || full.Cells == 0 {
		t.Fatalf("full call: cells %d, full cells %d; want equal and non-zero", full.Cells, full.FullCells)
	}
	if full.Precheck || full.Aborted {
		t.Fatalf("full call flagged precheck=%v aborted=%v", full.Precheck, full.Aborted)
	}

	var m Metrics
	if _, ok := DistanceWithin(t1, t2, 0, WithMetrics(&m)); ok {
		t.Fatalf("distance %d reported within cutoff 0", d)
	}
	if m.Precheck || !m.Aborted {
		t.Fatalf("cutoff 0: precheck=%v aborted=%v, want DP abort", m.Precheck, m.Aborted)
	}
	if m.Cells == 0 || m.Cells >= m.FullCells {
		t.Fatalf("cutoff 0: touched %d of %d cells, want strictly fewer (and some)", m.Cells, m.FullCells)
	}

	// Within the cutoff: exact distance, still banded below the full count.
	var w Metrics
	got, ok := DistanceWithin(t1, t2, d, WithMetrics(&w))
	if !ok || got != d {
		t.Fatalf("DistanceWithin at the exact distance: (%d,%v), want (%d,true)", got, ok, d)
	}
	if w.Cells >= w.FullCells {
		t.Fatalf("cutoff %d: touched %d of %d cells, want strictly fewer", d, w.Cells, w.FullCells)
	}

	// A large size delta must be rejected by the pre-check, no DP at all.
	var p Metrics
	if _, ok := DistanceWithin(star(30, []string{"a"}), tree.MustParse("a"), 5, WithMetrics(&p)); ok {
		t.Fatal("size-delta pair reported within cutoff")
	}
	if !p.Precheck || p.Cells != 0 {
		t.Fatalf("size-delta pair: precheck=%v cells=%d, want rejection before any DP", p.Precheck, p.Cells)
	}
}

// TestDistanceWithinCellsGate is the DP-work regression gate: across a
// fixed random workload with refine-realistic cutoffs, the bounded
// program must touch well under half of the full program's cells.
func TestDistanceWithinCellsGate(t *testing.T) {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 20, SizeStd: 6, Labels: 6, Decay: 0.1}
	ts := datagen.New(spec, 23).Dataset(30, 5)
	var touched, fullTotal int64
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			var m Metrics
			DistanceWithin(ts[i], ts[j], 4, WithMetrics(&m))
			touched += m.Cells
			fullTotal += m.FullCells
		}
	}
	if touched*2 >= fullTotal {
		t.Fatalf("bounded τ=4 workload touched %d of %d full cells; want < 50%%", touched, fullTotal)
	}
}

// TestDistanceOptions pins the option-folding surface: defaults, nil
// options, tightest cutoff winning, and negative cutoffs.
func TestDistanceOptions(t *testing.T) {
	t1 := paperT1()
	t2 := paperT2()
	c := weighted{rel: 2, ins: 1, del: 1}
	if got, want := Distance(t1, t2, nil, WithCost(c)), Distance(t1, t2, WithCost(c)); got != want {
		t.Fatalf("Distance with a nil option = %d, without = %d", got, want)
	}
	if got, want := Distance(t1, t2, WithCost(nil)), Distance(t1, t2); got != want {
		t.Fatalf("WithCost(nil) = %d, default = %d", got, want)
	}
	full := Distance(t1, t2)
	// The tightest of several cutoffs wins, wherever it is supplied.
	if _, ok := DistanceWithin(t1, t2, full+5, WithCutoff(full-1)); ok {
		t.Fatal("WithCutoff tighter than the argument was ignored")
	}
	if d, ok := DistanceWithin(t1, t2, full-1, WithCutoff(full+5)); ok || d != full-1+1 {
		t.Fatalf("argument cutoff: (%d,%v), want (%d,false)", d, ok, full)
	}
	if d := Distance(t1, t2, WithCutoff(full)); d != full {
		t.Fatalf("Distance WithCutoff at the distance = %d, want %d", d, full)
	}
	if d, ok := DistanceWithin(t1, t2, -3); ok || d != 0 {
		t.Fatalf("negative cutoff: (%d,%v), want (0,false)", d, ok)
	}
	if d, ok := DistanceWithin(t1, t1, 0); !ok || d != 0 {
		t.Fatalf("identical pair at cutoff 0: (%d,%v), want (0,true)", d, ok)
	}
	if d, ok := DistanceWithin(t1, t2, math.MaxInt); !ok || d != full {
		t.Fatalf("MaxInt cutoff: (%d,%v), want (%d,true)", d, ok, full)
	}
}

// benchPairs is a fixed workload of refine-sized tree pairs.
func benchPairs(n int) [][2]*tree.Tree {
	spec := datagen.Spec{FanoutMean: 3, FanoutStd: 1, SizeMean: 28, SizeStd: 8, Labels: 6, Decay: 0.1}
	ts := datagen.New(spec, 31).Dataset(2*n, 5)
	pairs := make([][2]*tree.Tree, n)
	for i := range pairs {
		pairs[i] = [2]*tree.Tree{ts[2*i], ts[2*i+1]}
	}
	return pairs
}

// BenchmarkDistanceWithin measures the bounded verifier at a
// refine-realistic cutoff, reporting DP cells per verification alongside
// time. Compare with BenchmarkDistanceFull for the saving.
func BenchmarkDistanceWithin(b *testing.B) {
	pairs := benchPairs(64)
	var m Metrics
	var cells, fullCells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		DistanceWithin(p[0], p[1], 6, WithMetrics(&m))
		cells += m.Cells
		fullCells += m.FullCells
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
	b.ReportMetric(float64(fullCells)/float64(b.N), "fullcells/op")
}

// BenchmarkDistanceFull is the unbounded baseline over the same workload.
func BenchmarkDistanceFull(b *testing.B) {
	pairs := benchPairs(64)
	var m Metrics
	var cells int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		Distance(p[0], p[1], WithMetrics(&m))
		cells += m.Cells
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}
