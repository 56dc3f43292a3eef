package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"treesim/internal/editdist"
	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
)

// exactness is the outcome of the exactness sample.
type exactness struct {
	checked    int
	mismatches []string // one line per wrong answer, with the query
	unchecked  int      // sampled answers whose dataset the benchmark could not reconstruct
}

// checkSample re-answers every sampled read of the window with a
// sequential full-DP scan — a plain editdist.Distance loop over the
// trees the query could see — and compares the served answer with it.
// byID maps dataset ids to trees: the base dataset followed by every
// acknowledged insert.
func checkSample(in *inputs, win *window, byID map[int]*tree.Tree) exactness {
	var ex exactness
	for _, rec := range win.reads {
		if rec.body == nil {
			continue
		}
		op := in.reads.at(rec.idx)
		var resp server.QueryResponse
		if err := json.Unmarshal(rec.body, &resp); err != nil {
			ex.mismatches = append(ex.mismatches, fmt.Sprintf("read %d: undecodable reply: %v", rec.idx, err))
			continue
		}
		// No workload deletes, so the query saw exactly ids [0, Dataset).
		live := resp.Stats.Dataset
		trees := make([]*tree.Tree, live)
		complete := true
		for id := range trees {
			if trees[id] = byID[id]; trees[id] == nil {
				complete = false
				break
			}
		}
		if !complete {
			ex.unchecked++
			continue
		}
		want := bruteForce(op, trees)
		got := make([]search.Result, len(resp.Results))
		for i, r := range resp.Results {
			got[i] = search.Result{ID: r.ID, Dist: r.Dist}
		}
		canonical(got)
		ex.checked++
		if !slices.Equal(got, want) {
			ex.mismatches = append(ex.mismatches, fmt.Sprintf("read %d %s %s: served %v, full-DP scan %v",
				rec.idx, op.path, op.tree, got, want))
		}
	}
	return ex
}

// bruteForce answers op over trees (indexed by id) with full Zhang–Shasha.
func bruteForce(op readOp, trees []*tree.Tree) []search.Result {
	var all []search.Result
	for id, t := range trees {
		d := editdist.Distance(op.tree, t)
		if op.isKNN || d <= op.tau {
			all = append(all, search.Result{ID: id, Dist: d})
		}
	}
	canonical(all)
	if op.isKNN && len(all) > op.k {
		all = all[:op.k]
	}
	return all
}

// canonical sorts results by (dist, id), the order the index documents.
func canonical(rs []search.Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].ID < rs[j].ID
	})
}
