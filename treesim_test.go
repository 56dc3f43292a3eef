package treesim

import (
	"context"
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end, mirroring the
// package documentation example.
func TestFacadeQuickstart(t *testing.T) {
	t1 := MustParseTree("a(b(c,d),b(c,d),e)")
	t2 := MustParseTree("a(b(c,d,b(e)),c,d,e)")

	if d := EditDistance(t1, t2); d != 3 {
		t.Errorf("EditDistance = %d, want 3", d)
	}

	space := NewBranchSpace(2)
	p1, p2 := space.Profile(t1), space.Profile(t2)
	if bd := BDist(p1, p2); bd != 9 {
		t.Errorf("BDist = %d, want 9", bd)
	}
	if lb := EditLowerBound(9, 2); lb != 2 {
		t.Errorf("EditLowerBound = %d, want 2", lb)
	}
	if f := BranchFactor(3); f != 9 {
		t.Errorf("BranchFactor(3) = %d, want 9", f)
	}
	if lb := SearchLBound(p1, p2); lb != 2 {
		t.Errorf("SearchLBound = %d, want 2", lb)
	}
	if pd := PosBDist(p1, p2, 1); pd != 11 {
		t.Errorf("PosBDist(1) = %d, want 11", pd)
	}
}

func TestFacadeSearch(t *testing.T) {
	spec, err := ParseGeneratorSpec("N{3,0.5}N{20,2}L6D0.05")
	if err != nil {
		t.Fatal(err)
	}
	data := GenerateDataset(spec, 100, 10, 7)
	for _, f := range []Filter{
		NewBiBranchFilter(), NewBiBranchFilterQ(3, false),
		NewHistoFilter(), NewSeqFilter(), NewNoFilter(), nil,
	} {
		ix := NewIndex(data, WithFilter(f))
		res, stats, _ := ix.KNN(context.Background(), data[5], 3)
		if len(res) != 3 || res[0].Dist != 0 {
			t.Fatalf("KNN broken under %T: %v", f, res)
		}
		if stats.Dataset != 100 {
			t.Fatalf("stats broken: %+v", stats)
		}
		rres, _, _ := ix.Range(context.Background(), data[5], 2)
		if len(rres) == 0 || rres[0].Dist != 0 {
			t.Fatalf("Range broken under %T: %v", f, rres)
		}
	}
}

func TestFacadeXML(t *testing.T) {
	tr, err := ParseXMLString("<a><b>hi</b></a>", DefaultXMLOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 3 {
		t.Errorf("XML tree size %d, want 3", tr.Size())
	}
	tr2, err := ParseXML(strings.NewReader("<a><b>hi</b></a>"), DefaultXMLOptions())
	if err != nil || tr2.Size() != 3 {
		t.Errorf("ParseXML: %v, %v", tr2, err)
	}
}

func TestFacadeIndexCost(t *testing.T) {
	spec, _ := ParseGeneratorSpec("N{3,0.5}N{12,2}L5D0.1")
	data := GenerateDataset(spec, 25, 5, 12)
	ix := NewIndex(data, NewBiBranchFilter(), WithCostModel(UnitCost{}))
	res, _, _ := ix.KNN(context.Background(), data[3], 2)
	if len(res) != 2 || res[0].Dist != 0 {
		t.Fatalf("NewIndex WithCostModel KNN: %v", res)
	}
}

func TestFacadeRNA(t *testing.T) {
	m := RNAMolecule{Sequence: "GAAAC", Structure: "(...)"}
	tr, err := m.Tree()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 5 { // root + pair + 3 loop bases
		t.Errorf("RNA tree size %d, want 5", tr.Size())
	}
}

func TestFacadeDatasetIO(t *testing.T) {
	data := GenerateDBLP(10, 3)
	var sb strings.Builder
	if err := SaveDataset(&sb, data); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 10 {
		t.Errorf("loaded %d trees", len(back))
	}
}

func TestFacadeCostModel(t *testing.T) {
	t1 := MustParseTree("a(b)")
	t2 := MustParseTree("a(c)")
	if d := EditDistance(t1, t2, WithEditCost(UnitCost{})); d != 1 {
		t.Errorf("unit cost distance = %d", d)
	}
}

func TestFacadeAdvancedFilters(t *testing.T) {
	spec, _ := ParseGeneratorSpec("N{3,0.5}N{18,2}L6D0.05")
	data := GenerateDataset(spec, 80, 8, 9)
	base := NewIndex(data, NewNoFilter())
	for _, f := range []Filter{NewPivotFilter(), NewVPTreeFilter()} {
		ix := NewIndex(data, WithFilter(f))
		wantR, _, _ := base.Range(context.Background(), data[7], 3)
		gotR, _, _ := ix.Range(context.Background(), data[7], 3)
		if len(gotR) != len(wantR) {
			t.Fatalf("%T: range results differ", f)
		}
	}
}

func TestFacadeJoin(t *testing.T) {
	spec, _ := ParseGeneratorSpec("N{3,0.5}N{12,2}L5D0.1")
	data := GenerateDataset(spec, 40, 5, 10)
	pairs, stats := SelfJoin(data, 2, JoinOptions{})
	if stats.Results != len(pairs) || stats.Pairs != 40*39/2 {
		t.Fatalf("join stats inconsistent: %+v", stats)
	}
	cross, _ := SimilarityJoin(data[:20], data[20:], 2, JoinOptions{})
	for _, p := range cross {
		if d := EditDistance(data[p.R], data[20+p.S]); d != p.Dist {
			t.Fatalf("cross join pair (%d,%d) distance %d, recomputed %d", p.R, p.S, p.Dist, d)
		}
	}
}

func TestFacadeEditScriptAndConstrained(t *testing.T) {
	t1 := MustParseTree("a(b(c,d),b(c,d),e)")
	t2 := MustParseTree("a(b(c,d,b(e)),c,d,e)")
	s := EditScript(t1, t2)
	if s.Cost != 3 {
		t.Errorf("script cost %d, want 3", s.Cost)
	}
	if cd := ConstrainedEditDistance(t1, t2); cd < 3 {
		t.Errorf("constrained distance %d undercuts edit distance 3", cd)
	}
}

func TestFacadeIndexPersistenceAndInsert(t *testing.T) {
	spec, _ := ParseGeneratorSpec("N{3,0.5}N{15,2}L5D0.1")
	data := GenerateDataset(spec, 30, 5, 11)
	ix := NewIndex(data, NewBiBranchFilter())

	var sb strings.Builder
	if err := SaveIndex(&sb, ix); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 30 {
		t.Fatalf("loaded %d trees", loaded.Size())
	}
	novel := MustParseTree("q(w(e),r,t(y))")
	id, err := loaded.Insert(novel)
	if err != nil {
		t.Fatal(err)
	}
	res, _, _ := loaded.KNN(context.Background(), novel, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("inserted tree not retrievable: %v", res)
	}
}

func TestFacadeTreeConstruction(t *testing.T) {
	tr := NewTree(NewNode("a", NewNode("b"), NewNode("c")))
	if tr.Size() != 3 || tr.String() != "a(b,c)" {
		t.Errorf("constructed tree: %s", tr)
	}
	if _, err := ParseTree("a("); err == nil {
		t.Error("ParseTree accepted malformed input")
	}
}

// TestBiBranchFilterQValidation: levels below the proven minimum q=2 are a
// construction-time panic, not a silently-wrong filter (the scaling factor
// 4(q-1)+1 degenerates for q < 2 and the bound would be unsound).
func TestBiBranchFilterQValidation(t *testing.T) {
	for _, q := range []int{1, 0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBiBranchFilterQ(%d, true) did not panic", q)
				}
			}()
			NewBiBranchFilterQ(q, true)
		}()
	}
	if f := NewBiBranchFilterQ(2, true); f == nil {
		t.Fatal("NewBiBranchFilterQ(2) rejected a valid level")
	}
}

// TestFacadeOptions: the functional-options surface reaches the engine —
// shard and worker settings apply, WithExplain fills its destination, and
// results match the default configuration.
func TestFacadeOptions(t *testing.T) {
	spec, _ := ParseGeneratorSpec("N{3,0.5}N{14,2}L5D0.1")
	data := GenerateDataset(spec, 40, 5, 17)
	plain := NewIndex(data, NewBiBranchFilter())
	sharded := NewIndex(data, NewBiBranchFilter(), WithShards(5), WithRefineWorkers(4))

	ctx := context.Background()
	want, _, err := plain.KNN(ctx, data[8], 4)
	if err != nil {
		t.Fatal(err)
	}
	var ex *Explain
	got, _, err := sharded.KNN(ctx, data[8], 4, WithExplain(&ex))
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil || ex.Op != "knn" {
		t.Fatalf("explain not produced: %+v", ex)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sharded KNN diverged: %v vs %v", got, want)
		}
	}
}
