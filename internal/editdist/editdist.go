// Package editdist implements the tree edit distance for rooted, ordered,
// labeled trees — the "real" distance that the binary branch embedding
// lower-bounds and that the refine step of similarity search must evaluate.
//
// The main algorithm is the dynamic program of Zhang and Shasha (SIAM J.
// Computing 1989, reference [23] of the paper), which runs in
//
//	O(|T1|·|T2|·min(depth(T1),leaves(T1))·min(depth(T2),leaves(T2)))
//
// time and O(|T1|·|T2|) space. The entry points are options-based
// (Distance, WithCost, WithCutoff); DistanceWithin is the cutoff-first
// surface for threshold verification, backed by O(n) pre-checks, a
// diagonal DP band and frontier-row early abandoning (see bounded.go).
// The package also provides the classic string edit distance and the Guha
// et al. preorder/postorder sequence lower bound (reference [15]), used as
// an additional filter baseline, and an exponential brute-force distance
// over Tai mappings used to validate the dynamic program in tests.
package editdist

import "treesim/internal/tree"

// CostModel assigns costs to the three edit operations. Costs must be
// non-negative, and Relabel(a,a) must be 0 for the distance to satisfy the
// identity axiom.
type CostModel interface {
	// Relabel is the cost of changing label a into label b.
	Relabel(a, b string) int
	// Insert is the cost of inserting a node with the given label.
	Insert(label string) int
	// Delete is the cost of deleting a node with the given label.
	Delete(label string) int
}

// UnitCost is the unit-cost model adopted by the paper: every operation
// costs 1, and relabeling a node to its own label costs 0. Under UnitCost
// the edit distance is the minimum number of operations transforming one
// tree into the other, and it is a metric.
type UnitCost struct{}

// Relabel implements CostModel.
func (UnitCost) Relabel(a, b string) int {
	if a == b {
		return 0
	}
	return 1
}

// Insert implements CostModel.
func (UnitCost) Insert(string) int { return 1 }

// Delete implements CostModel.
func (UnitCost) Delete(string) int { return 1 }

// Distance returns the tree edit distance between t1 and t2 under the
// options' cost model (unit costs by default):
//
//	d := editdist.Distance(t1, t2)                        // paper's unit costs
//	d := editdist.Distance(t1, t2, editdist.WithCost(c))  // custom model
//
// With WithCutoff the computation is bounded: the result is exact whenever
// it is ≤ the cutoff and otherwise only guaranteed to exceed it. Callers
// that need to know which side the pair landed on should use
// DistanceWithin.
func Distance(t1, t2 *tree.Tree, opts ...Option) int {
	cfg := applyOptions(opts)
	d, _ := distance(t1, t2, &cfg)
	return d
}

// DistanceWithin is the cutoff-first entry point for threshold
// verification: it decides whether the edit distance between t1 and t2 is
// at most cutoff, spending as little work as the decision allows
// (pre-checks, diagonal band, early abandoning — see bounded.go). It
// returns (d, true) with the exact distance d when d ≤ cutoff, and
// (lb, false) with a certified lower bound lb > cutoff when the distance
// is proven to exceed it.
func DistanceWithin(t1, t2 *tree.Tree, cutoff int, opts ...Option) (int, bool) {
	cfg := applyOptions(opts)
	if cutoff < cfg.cutoff {
		cfg.cutoff = cutoff
	}
	return distance(t1, t2, &cfg)
}

// distance dispatches a folded configuration: empty-tree cases first, then
// the unbounded or the bounded program. The boolean reports dist ≤ cutoff;
// when false the returned value is a certified lower bound > cutoff.
func distance(t1, t2 *tree.Tree, cfg *config) (int, bool) {
	a, b := decompose(t1), decompose(t2)
	if cfg.metrics != nil {
		*cfg.metrics = Metrics{FullCells: fullCells(a, b)}
	}
	c := cfg.cost
	switch {
	case a.n == 0 && b.n == 0:
		return 0, 0 <= cfg.cutoff
	case a.n == 0:
		d := b.totalCost(c.Insert)
		return d, d <= cfg.cutoff
	case b.n == 0:
		d := a.totalCost(c.Delete)
		return d, d <= cfg.cutoff
	}
	cutoff := cfg.cutoff
	if cutoff >= unreachable {
		// No cutoff (or one too large to prune anything): the plain
		// program, with every cell of every keyroot subproblem computed.
		d := distFull(a, b, c, cfg.metrics)
		return d, d <= cutoff
	}
	if cutoff < 0 {
		// Distances are non-negative, so nothing is within a negative
		// cutoff; 0 is the trivial certified lower bound.
		if cfg.metrics != nil {
			cfg.metrics.Precheck = true
		}
		return 0, false
	}
	cmin := minOpCost(c)
	band := a.n + b.n // covers every cell: no restriction
	if cmin >= 1 {
		if lb := precheckBound(t1, t2, a, b, cmin); lb > cutoff {
			if cfg.metrics != nil {
				cfg.metrics.Precheck = true
			}
			return lb, false
		}
		if w := cutoff / cmin; w < band {
			band = w
		}
	}
	d := distBounded(a, b, c, cutoff, band, cfg.metrics)
	if d > cutoff {
		// The band-confined value proves dist > cutoff but may overshoot
		// the true distance, so certify only the tight integer bound.
		if cfg.metrics != nil {
			cfg.metrics.Aborted = true
		}
		return cutoff + 1, false
	}
	return d, true
}

// distFull runs the unbounded Zhang–Shasha program (both trees non-empty).
func distFull(a, b *decomp, c CostModel, m *Metrics) int {
	// td[i][j] = tree distance between subtree rooted at postorder node i
	// of T1 and subtree rooted at postorder node j of T2 (1-based).
	td := make([][]int, a.n+1)
	for i := range td {
		td[i] = make([]int, b.n+1)
	}
	// Forest distance scratch, reused across keyroot pairs.
	fd := make([][]int, a.n+1)
	for i := range fd {
		fd[i] = make([]int, b.n+1)
	}

	for _, i := range a.keyroots {
		for _, j := range b.keyroots {
			treeDist(a, b, i, j, c, td, fd)
		}
	}
	if m != nil {
		m.Cells = m.FullCells
	}
	return td[a.n][b.n]
}

// treeDist fills td[i'][j'] for all i' on the leftmost path of keyroot i
// and j' on the leftmost path of keyroot j, per Zhang–Shasha.
func treeDist(a, b *decomp, i, j int, c CostModel, td, fd [][]int) {
	li, lj := a.lml[i], b.lml[j]
	fd[li-1][lj-1] = 0
	for di := li; di <= i; di++ {
		fd[di][lj-1] = fd[di-1][lj-1] + c.Delete(a.label[di])
	}
	for dj := lj; dj <= j; dj++ {
		fd[li-1][dj] = fd[li-1][dj-1] + c.Insert(b.label[dj])
	}
	for di := li; di <= i; di++ {
		for dj := lj; dj <= j; dj++ {
			del := fd[di-1][dj] + c.Delete(a.label[di])
			ins := fd[di][dj-1] + c.Insert(b.label[dj])
			if a.lml[di] == li && b.lml[dj] == lj {
				// Both prefixes are whole subtrees: this is also a tree
				// distance.
				rel := fd[di-1][dj-1] + c.Relabel(a.label[di], b.label[dj])
				m := min3(del, ins, rel)
				fd[di][dj] = m
				td[di][dj] = m
			} else {
				sub := fd[a.lml[di]-1][b.lml[dj]-1] + td[di][dj]
				fd[di][dj] = min3(del, ins, sub)
			}
		}
	}
}

// decomp holds the postorder decomposition of a tree used by the DP.
type decomp struct {
	n        int      // node count
	label    []string // label[i] = label of postorder node i (1-based)
	lml      []int    // lml[i]   = postorder index of leftmost leaf of i
	keyroots []int    // ascending LR-keyroots
}

// decompose computes postorder labels, leftmost-leaf indices and the
// LR-keyroots (nodes that are the root or have a left sibling; equivalently
// the highest node of each distinct leftmost path).
func decompose(t *tree.Tree) *decomp {
	d := &decomp{label: []string{""}, lml: []int{0}}
	if t.IsEmpty() {
		return d
	}
	var rec func(n *tree.Node) int // returns postorder index of n
	rec = func(n *tree.Node) int {
		first := 0
		for k, ch := range n.Children {
			idx := rec(ch)
			if k == 0 {
				first = d.lml[idx]
			}
		}
		d.n++
		d.label = append(d.label, n.Label)
		if len(n.Children) == 0 {
			d.lml = append(d.lml, d.n)
		} else {
			d.lml = append(d.lml, first)
		}
		return d.n
	}
	rec(t.Root)
	// Keyroots: for each distinct leftmost-leaf value keep the largest
	// postorder index having it.
	last := make(map[int]int, d.n)
	for i := 1; i <= d.n; i++ {
		last[d.lml[i]] = i
	}
	for i := 1; i <= d.n; i++ {
		if last[d.lml[i]] == i {
			d.keyroots = append(d.keyroots, i)
		}
	}
	return d
}

// totalCost sums a per-label cost over every node, e.g. the cost of
// deleting (or inserting) the whole tree.
func (d *decomp) totalCost(cost func(string) int) int {
	s := 0
	for i := 1; i <= d.n; i++ {
		s += cost(d.label[i])
	}
	return s
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
