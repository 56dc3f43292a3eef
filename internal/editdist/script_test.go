package editdist

import (
	"math/rand"
	"strings"
	"testing"

	"treesim/internal/tree"
)

func TestEditScriptPaperPair(t *testing.T) {
	s := EditScript(paperT1(), paperT2())
	if s.Cost != 3 {
		t.Fatalf("script cost %d, want 3", s.Cost)
	}
	rel, del, ins := s.Counts()
	if rel+del+ins != 3 {
		t.Errorf("op counts %d+%d+%d, want 3 total", rel, del, ins)
	}
	// T1 (8 nodes) → T2 (9 nodes): net +1 node.
	if ins-del != 1 {
		t.Errorf("inserts−deletes = %d, want 1", ins-del)
	}
	if len(s.Mapping()) == 0 {
		t.Error("empty mapping")
	}
	if !strings.Contains(s.String(), "cost 3") {
		t.Errorf("script rendering: %q", s.String())
	}
}

// TestScriptCostMatchesDistance: the backtraced script always has exactly
// the DP's optimal cost, and its operation costs sum to Cost.
func TestScriptCostMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	alphabet := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		t1 := smallRandomTree(rng, 12, alphabet)
		t2 := smallRandomTree(rng, 12, alphabet)
		s := EditScript(t1, t2)
		want := Distance(t1, t2)
		if s.Cost != want {
			t.Fatalf("trial %d: script cost %d, distance %d (%q vs %q)",
				trial, s.Cost, want, t1, t2)
		}
		sum := 0
		for _, op := range s.Ops {
			sum += op.Cost
		}
		if sum != s.Cost {
			t.Fatalf("op costs sum to %d, script says %d", sum, s.Cost)
		}
	}
}

// TestScriptCostMatchesDistanceWeighted repeats under a non-unit model.
func TestScriptCostMatchesDistanceWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	alphabet := []string{"a", "b"}
	c := weighted{rel: 3, ins: 2, del: 5}
	for trial := 0; trial < 100; trial++ {
		t1 := smallRandomTree(rng, 9, alphabet)
		t2 := smallRandomTree(rng, 9, alphabet)
		s := EditScriptCost(t1, t2, c)
		if want := Distance(t1, t2, WithCost(c)); s.Cost != want {
			t.Fatalf("trial %d: script cost %d, distance %d (%q vs %q)",
				trial, s.Cost, want, t1, t2)
		}
	}
}

// TestScriptMappingValid: the mapping underlying the script is a valid Tai
// mapping — one-to-one and preserving both preorder and postorder order —
// and its op counts are consistent with the tree sizes.
func TestScriptMappingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	alphabet := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 150; trial++ {
		t1 := smallRandomTree(rng, 14, alphabet)
		t2 := smallRandomTree(rng, 14, alphabet)
		s := EditScript(t1, t2)
		m := s.Mapping()

		rel, del, ins := s.Counts()
		matches := len(m) - rel
		if matches+rel+del != t1.Size() {
			t.Fatalf("T1 side unbalanced: %d mapped + %d deleted != %d",
				len(m), del, t1.Size())
		}
		if matches+rel+ins != t2.Size() {
			t.Fatalf("T2 side unbalanced: %d mapped + %d inserted != %d",
				len(m), ins, t2.Size())
		}

		pos1 := postToOrders(t1)
		pos2 := postToOrders(t2)
		seenA, seenB := map[int]bool{}, map[int]bool{}
		for _, p := range m {
			if seenA[p[0]] || seenB[p[1]] {
				t.Fatalf("mapping not one-to-one: %v", m)
			}
			seenA[p[0]], seenB[p[1]] = true, true
		}
		for x := 0; x < len(m); x++ {
			for y := x + 1; y < len(m); y++ {
				u1, v1 := m[x][0], m[x][1]
				u2, v2 := m[y][0], m[y][1]
				if (pos1[u1].pre < pos1[u2].pre) != (pos2[v1].pre < pos2[v2].pre) {
					t.Fatalf("preorder order violated by pairs %v, %v", m[x], m[y])
				}
				if (u1 < u2) != (v1 < v2) { // postorder indices
					t.Fatalf("postorder order violated by pairs %v, %v", m[x], m[y])
				}
			}
		}
	}
}

type orders struct{ pre, post int }

// postToOrders maps each node's 1-based postorder index to its orders.
func postToOrders(t *tree.Tree) map[int]orders {
	pos := t.Number()
	out := make(map[int]orders, len(pos.Nodes))
	for _, n := range pos.Nodes {
		out[pos.Post[n]] = orders{pre: pos.Pre[n], post: pos.Post[n]}
	}
	return out
}

func TestEditScriptEmptyTrees(t *testing.T) {
	e := tree.New(nil)
	tr := tree.MustParse("a(b,c)")
	s := EditScript(e, tr)
	if s.Cost != 3 {
		t.Errorf("insert-all cost %d, want 3", s.Cost)
	}
	if _, del, ins := s.Counts(); del != 0 || ins != 3 {
		t.Errorf("expected 3 inserts, got %d del %d ins", del, ins)
	}
	s = EditScript(tr, e)
	if s.Cost != 3 {
		t.Errorf("delete-all cost %d, want 3", s.Cost)
	}
	s = EditScript(e, e)
	if s.Cost != 0 || len(s.Ops) != 0 {
		t.Errorf("empty-empty script: %+v", s)
	}
}

func TestEditScriptIdentity(t *testing.T) {
	tr := paperT2()
	s := EditScript(tr, tr.Clone())
	if s.Cost != 0 {
		t.Fatalf("self script cost %d", s.Cost)
	}
	if len(s.Mapping()) != tr.Size() {
		t.Errorf("self mapping covers %d of %d nodes", len(s.Mapping()), tr.Size())
	}
	for _, op := range s.Ops {
		if op.Kind != Match {
			t.Errorf("non-match op in identity script: %s", op)
		}
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{Match: "match", Relabel: "relabel", Delete: "delete", Insert: "insert"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("OpKind(%d).String() = %q", int(k), k.String())
		}
	}
	if OpKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}
