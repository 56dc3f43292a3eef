package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"treesim/internal/search"
)

// small returns the workload shrunk for tests: same generators and
// configuration, a tenth of the dataset.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.size /= 10
	return w
}

// fingerprint hashes a run's inputs: the dataset's text, and the first n
// read and write requests' wire bytes.
func fingerprint(w workload, seed int64, n int) (dataset, requests [sha256.Size]byte) {
	in := w.generate(seed)
	h := sha256.New()
	for _, t := range in.base {
		h.Write([]byte(t.String()))
		h.Write([]byte{'\n'})
	}
	copy(dataset[:], h.Sum(nil))
	h.Reset()
	for i := 0; i < n; i++ {
		h.Write(in.reads.at(i).body)
		h.Write([]byte(in.writes.at(i).String()))
	}
	copy(requests[:], h.Sum(nil))
	return dataset, requests
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			d1, r1 := fingerprint(w, 7, 200)
			d2, r2 := fingerprint(w, 7, 200)
			if d1 != d2 || r1 != r2 {
				t.Fatal("one seed produced two different datasets or request sequences")
			}
			d3, r3 := fingerprint(w, 8, 200)
			if r3 == r1 {
				t.Fatal("a different seed produced the same request sequence")
			}
			// The dataset is fixed (see datasetSeed).
			if d3 != d1 {
				t.Fatal("the dataset changed with the seed")
			}
		})
	}
}

// deterministicCounts are the per-layer counts the benchmark documents as
// repeatable for a fixed seed: the served index's Candidates and Dataset
// (search.candidates_per_query, search.accessed_frac), the sequential
// refine replay's DP cells, and the write replay's seal count at a fixed
// insert count. search.verified_per_query is not among them: under
// parallel refinement the shared k-th-distance threshold prunes
// opportunistically, so Verified varies with worker timing.
type deterministicCounts struct {
	candidates, dataset, cells int64
	seals, compactions         uint64
}

func countsOf(t *testing.T, w workload, seed int64, reads, inserts int) deterministicCounts {
	t.Helper()
	in := w.generate(seed)
	ix := w.newIndex(in.base)
	rep := newReplica(in.base)
	tr := newTracer(time.Now(), "r")
	var dc deterministicCounts
	for i := 0; i < reads; i++ {
		op := in.reads.at(i)
		var st search.Stats
		var err error
		if op.isKNN {
			_, st, err = ix.KNN(context.Background(), op.tree, op.k)
		} else {
			_, st, err = ix.Range(context.Background(), op.tree, op.tau)
		}
		if err != nil {
			t.Fatal(err)
		}
		dc.candidates += int64(st.Candidates)
		dc.dataset += int64(st.Dataset)
		bounds, order, _ := rep.filterPass(tr, int32(i), -1, op)
		dc.cells += rep.refinePass(tr, int32(i), -1, op, bounds, order).cells
	}
	wl, err := replayWrites(in, inserts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dc.seals, dc.compactions = wl.seals, wl.compactions
	return dc
}

func TestCountsRepeat(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			const inserts = 5*rwMemtable + 7
			a := countsOf(t, w, 3, 30, inserts)
			b := countsOf(t, w, 3, 30, inserts)
			if a != b {
				t.Fatalf("deterministic counts differ between two runs of one seed:\n%+v\n%+v", a, b)
			}
			if a.candidates == 0 || a.dataset == 0 || a.cells == 0 {
				t.Fatalf("counts did not fire: %+v", a)
			}
			if a.seals != inserts/rwMemtable {
				t.Fatalf("seals = %d after %d inserts into %d-entry memtables, want %d",
					a.seals, inserts, rwMemtable, inserts/rwMemtable)
			}
			if a.compactions == 0 {
				t.Fatalf("no compaction in %d seals", a.seals)
			}
		})
	}
}

// TestSpansSelfTime pins self-time accounting on a hand-built trace.
func TestSpansSelfTime(t *testing.T) {
	origin := time.Now()
	tr := newTracer(origin, "r")
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.record("read", 0, -1, at(0), at(10))
	tr.record("client.http", 0, root, at(0), at(6))
	f := tr.record("search.filter", 0, root, at(6), at(9))
	tr.record("branch.bounds", 0, f, at(6), at(8))
	got := map[string][2]time.Duration{}
	for _, lt := range selfTimes(tr) {
		got[lt.name] = [2]time.Duration{lt.total, lt.self}
	}
	want := map[string][2]time.Duration{
		"read":          {10 * time.Millisecond, 1 * time.Millisecond},
		"client.http":   {6 * time.Millisecond, 6 * time.Millisecond},
		"search.filter": {3 * time.Millisecond, 1 * time.Millisecond},
		"branch.bounds": {2 * time.Millisecond, 2 * time.Millisecond},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: total/self = %v, want %v", name, got[name], w)
		}
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(buf.Bytes(), []byte{'\n'}); lines != 5 {
		t.Errorf("span dump has %d lines, want a header and 4 spans:\n%s", lines, buf.String())
	}
}

// TestRunReportsBenchmarkMetrics runs every workload, shrunk, for a short
// window with and without tracing, and checks that the result carries
// exactly the metrics BENCHMARK.json lists.
func TestRunReportsBenchmarkMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", name, trace), func(t *testing.T) {
				w := small(t, name)
				c := config{workload: name, seed: 5, seconds: 2, trace: trace, workdir: t.TempDir()}
				var out bytes.Buffer
				res, err := bench(c, w, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %+v (present %t), want a finite value in %s", m.Name, got, ok, m.Unit)
					}
				}
			})
		}
	}
}
