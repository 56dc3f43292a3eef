// Command perfbench is treesim's benchmark. Each workload sends generated
// requests over real HTTP to an in-process server.New(search.NewIndex(...))
// on a loopback listener, from one process with at most two connections,
// for a fixed number of seconds; it checks a sample of the answers against
// a sequential full-DP scan and prints the client-observed metrics.
//
//	bash perfbench/run.sh --workload synth_knn --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run also replays the same seeded requests against a
// fresh server while timing, in-process and from this package only, each
// call into the program's layers (search, branch, editdist, server codec,
// segstore, wal); it prints the per-layer metrics instead, and writes the
// spans to <workdir>/spans-<workload>.tsv.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The lines before it are the human-readable report, run metadata
// included. A run that cannot be reported honestly — GOMAXPROCS < 2, an
// unresolved percentile, an open-loop writer that fell behind its
// schedule — exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"treesim/internal/segstore"
	"treesim/internal/tree"
)

const (
	// setupRepeats is how many times a run builds the server; set-up time
	// and heap per tree are their medians.
	setupRepeats = 15
	// warmupReads are sent untimed before each window.
	warmupReads = 20
	// maxGenLagMs bounds the open-loop writer's p99 lateness against its
	// schedule. The writer has one connection, so an insert stalled behind
	// a compaction delays the ones due after it; that queueing is part of
	// what insert latency (timed from when due) measures. A lag beyond a
	// second means the server no longer sustains writeRate and the backlog
	// grows through the window: the run is refused instead of reported.
	maxGenLagMs = 1000.0
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	commit   string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload name")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed (the reads and writes derive from it)")
	fs.IntVar(&c.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced replay")
	fs.StringVar(&c.commit, "commit", "unknown", "source commit, for the report")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for scratch files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c.trace = trace == 1
	w, ok := findWorkload(c.workload)
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	// With one processor the server, the client and the index's worker
	// pool time-slice one CPU: parallelism claims would measure nothing.
	if p := runtime.GOMAXPROCS(0); p < 2 {
		fmt.Fprintf(stderr, "perfbench: refusing to report a run at GOMAXPROCS=%d (< 2)\n", p)
		return 1
	}
	res, err := bench(c, w, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// bench runs one workload: set-up, warm-up, the untraced window, the
// exactness sample and, with --trace 1, the traced replay.
func bench(c config, w workload, out io.Writer) (*result, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(c.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	in := w.generate(c.seed)
	printMeta(out, c, w)
	rc, wc := newClient(), newClient()
	defer rc.CloseIdleConnections()
	defer wc.CloseIdleConnections()

	su, err := setUp(w, in.base, runDir, setupRepeats, rc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if err := warmUp(in, su.s, rc, warmupReads); err != nil {
		su.s.stop(rc, wc)
		return nil, err
	}
	dur := time.Duration(c.seconds) * time.Second
	win := runWindow(w, in, su.s, rc, wc, load{firstRead: warmupReads, d: dur})
	if err := su.s.stop(rc, wc); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	ex := checkSample(in, win, treesByID(in, win))
	for _, m := range ex.mismatches {
		fmt.Fprintf(out, "MISMATCH %s\n", m)
	}

	res := &result{Correct: ex.checked > 0 && len(ex.mismatches) == 0}
	res.Attempted, res.Failed = win.counts()
	res.Failed += len(ex.mismatches)
	e2e, err := endToEnd(out, w, in, su, win, ex, res)
	if err != nil {
		return nil, err
	}
	if !c.trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, twin, err := traced(out, c, w, in, runDir, rc, wc, win)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	a, f := twin.counts()
	res.Attempted += a
	res.Failed += f
	res.Metrics = layers
	return res, nil
}

func printMeta(out io.Writer, c config, w workload) {
	conns, rate, memtable, fsync := 1, "none", segstore.DefaultMemtableSize, "none (no WAL)"
	if w.sendWrites {
		conns, rate = 2, fmt.Sprintf("%d/s", writeRate)
	}
	if w.memtable > 0 {
		memtable = w.memtable
	}
	if w.wal {
		fsync = "wal.SyncAlways"
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%t\n", w.name, c.seed, c.seconds, c.trace)
	fmt.Fprintf(out, "# meta gomaxprocs=%d nproc=%d go=%s commit=%s seed=%d connections=%d insert_rate=%s memtable=%d fsync=%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), c.commit, c.seed, conns, rate, memtable, fsync)
}

// counts returns the window's attempted and failed operations.
func (win *window) counts() (attempted, failed int) {
	for _, r := range win.reads {
		if r.failed {
			failed++
		}
	}
	for _, r := range win.writes {
		if r.failed {
			failed++
		}
	}
	return len(win.reads) + len(win.writes), failed
}

// treesByID maps dataset ids to trees: the base dataset, then every
// insert the server acknowledged.
func treesByID(in *inputs, win *window) map[int]*tree.Tree {
	m := make(map[int]*tree.Tree, len(in.base)+len(win.writes))
	for id, t := range in.base {
		m[id] = t
	}
	for _, r := range win.writes {
		if !r.failed {
			m[r.id] = in.writes.at(r.idx)
		}
	}
	return m
}

// endToEnd prints the client-observed report, naming each figure after
// its operation (knn_p50_ms, range_p99_ms, insert_p50_ms, ...), and
// returns the end-to-end metrics, which every workload reports: p50_ms
// and p99_ms are its reads (k-NN, or range on dblp_rw), queries_per_s its
// completed reads per second. Insert latency is printed, not returned:
// only dblp_rw inserts, and its p99 is an extreme of a few compaction
// stalls that moves by more between runs than any bound could absorb.
func endToEnd(out io.Writer, w workload, in *inputs, su *setupResult, win *window, ex exactness, res *result) (map[string]metric, error) {
	var reads, writes, lags, service []float64
	okReads := 0
	for _, r := range win.reads {
		reads = append(reads, r.latency)
		if !r.failed {
			okReads++
		}
	}
	for _, r := range win.writes {
		writes = append(writes, r.latency)
		lags = append(lags, r.lag)
		if !r.failed {
			service = append(service, ms(r.done.Sub(r.sent)))
		}
	}
	readOp := "knn"
	if !in.reads.at(0).isKNN {
		readOp = "range"
	}
	rs, ws := NewSample(reads), NewSample(writes)
	setup, heap := NewSample(su.setupS), NewSample(su.heapPerTree)
	qps := float64(okReads) / win.elapsed.Seconds()
	failedFrac := float64(res.Failed) / float64(res.Attempted)

	fmt.Fprintf(out, "%-27s %s ms\n", readOp+"_p50_ms (p50_ms)", rs.Median())
	fmt.Fprintf(out, "%-27s %s ms\n", readOp+"_p90_ms", rs.Percentile(90))
	fmt.Fprintf(out, "%-27s %s ms\n", readOp+"_p99_ms (p99_ms)", rs.Percentile(99))
	if w.sendWrites {
		sv := NewSample(service)
		fmt.Fprintf(out, "%-27s %s ms from when due\n", "insert_p50_ms", ws.Median())
		fmt.Fprintf(out, "%-27s %s ms from when due\n", "insert_p99_ms", ws.Percentile(99))
		fmt.Fprintf(out, "%-27s p50 %s, p99 %s ms from when sent\n", "insert service", sv.Median(), sv.Percentile(99))
		fmt.Fprintf(out, "%-27s %s ms (bound %.0f ms)\n", "writer lag p99", NewSample(lags).Percentile(99), maxGenLagMs)
	}
	fmt.Fprintf(out, "%-27s %.2f 1/s (%d reads in %.2f s)\n", "queries_per_s", qps, okReads, win.elapsed.Seconds())
	fmt.Fprintf(out, "%-27s %s s, median of builds (min %.4f, max %.4f)\n", "setup_s", setup.Median().Central(),
		setup.Percentile(0).Value, setup.Percentile(100).Value)
	fmt.Fprintf(out, "%-27s %s B, median of builds\n", "heap_bytes_per_tree", heap.Median().Central())
	fmt.Fprintf(out, "%-27s %.6f (%d failed of %d attempted; exactness sample: %d checked, %d wrong, %d unchecked; %d rejected with 429)\n",
		"failed_frac (1 - ok_frac)", failedFrac, res.Failed, res.Attempted, ex.checked, len(ex.mismatches), ex.unchecked, win.rejected)

	if w.sendWrites {
		if lag := NewSample(lags).Percentile(99); lag.Value > maxGenLagMs {
			return nil, fmt.Errorf("run invalid: the open-loop writer fell behind its schedule (lag p99 %s ms, bound %.1f ms)", lag, maxGenLagMs)
		}
	}
	// An unresolved p99 is still the nearest-rank value of the samples the
	// run has (the report above says it is unresolved); a percentile that
	// lands on a failed read is no latency at all.
	p50, p99 := rs.Median(), rs.Percentile(99)
	if math.IsInf(p99.Value, 0) {
		return nil, fmt.Errorf("run invalid: more than 1%% of reads failed (p99 %s)", p99)
	}
	return map[string]metric{
		"p50_ms":              {p50.Value, "ms"},
		"p99_ms":              {p99.Value, "ms"},
		"queries_per_s":       {qps, "1/s"},
		"setup_s":             {setup.Median().Value, "s"},
		"heap_bytes_per_tree": {heap.Median().Value, "B"},
		"ok_frac":             {1 - failedFrac, "ratio"},
	}, nil
}

// traced runs the traced replay: a fresh server, the same warm-up and the
// same seeded requests for a third of the window (reads capped at what
// the untraced window sent), each read replayed in-process layer by
// layer; then the write-path replay. It prints the self-time table and
// returns the per-layer metrics.
func traced(out io.Writer, c config, w workload, in *inputs, runDir string, rc, wc *http.Client, untraced *window) (map[string]metric, *window, error) {
	s, _, err := startServer(w, in.base, runDir, rc)
	if err != nil {
		return nil, nil, err
	}
	if err := warmUp(in, s, rc, warmupReads); err != nil {
		s.stop(rc, wc)
		return nil, nil, err
	}
	origin := time.Now()
	tr := &tracedReads{tr: newTracer(origin, "r"), ix: s.ix, rep: newReplica(in.base)}
	tw := &tracedWrites{tr: newTracer(origin, "w"), reads: tr}
	// A third of the untraced window is plenty for per-layer means and
	// medians.
	twin := runWindow(w, in, s, rc, wc, load{
		firstRead: warmupReads, maxReads: len(untraced.reads),
		d: time.Duration(c.seconds) * time.Second / 3, onRead: tr.onRead, onWrite: tw.onWrite,
	})
	if err := s.stop(rc, wc); err != nil {
		return nil, nil, fmt.Errorf("shutdown: %w", err)
	}
	replayDir, err := os.MkdirTemp(runDir, "replay-")
	if err != nil {
		return nil, nil, err
	}
	wl, err := replayWrites(in, writeRate*c.seconds/3, replayDir)
	if err != nil {
		return nil, nil, fmt.Errorf("write replay: %w", err)
	}

	spansPath := filepath.Join(c.workdir, "spans-"+w.name+".tsv")
	f, err := os.Create(spansPath)
	if err != nil {
		return nil, nil, err
	}
	if err := writeSpans(f, tr.tr, tw.tr); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}

	a := &tr.acc
	if a.reads == 0 || a.searchErrors > 0 {
		return nil, nil, fmt.Errorf("traced replay: %d reads replayed, %d in-process search errors", a.reads, a.searchErrors)
	}
	fmt.Fprintf(out, "# traced replay: %d reads, %d inserts; spans in %s\n", a.reads, len(twin.writes), spansPath)
	fmt.Fprintf(out, "# %-18s %8s %12s %12s %14s\n", "layer", "spans", "total_ms", "self_ms", "self_ms/span")
	for _, lt := range selfTimes(tr.tr, tw.tr) {
		fmt.Fprintf(out, "# %-18s %8d %12.2f %12.2f %14.4f\n", lt.name, lt.spans,
			ms(lt.total), ms(lt.self), ms(lt.self)/float64(lt.spans))
	}
	httpS, indexS, overS := NewSample(a.httpMs), NewSample(a.indexMs), NewSample(a.overheadMs)
	filterS, refineS := NewSample(a.filterMs), NewSample(a.refineMs)
	fmt.Fprintf(out, "# replayed CPU work per read (single-threaded, not wall clock): filter %.3f + refine %.3f = %.3f ms; served search.index_ms %.3f ms (parallel, wall)\n",
		filterS.Mean(), refineS.Mean(), filterS.Mean()+refineS.Mean(), indexS.Mean())
	fmt.Fprintf(out, "# reconcile: server.overhead_ms %.3f + search.index_ms %.3f vs client HTTP median %.3f ms\n",
		overS.Median().Value, indexS.Median().Value, httpS.Median().Value)
	if a.replicaOutOfSync > 0 {
		fmt.Fprintf(out, "# %d traced reads saw a different dataset size than the replica (inserts in flight)\n", a.replicaOutOfSync)
	}

	var untracedHTTP []float64
	for _, r := range untraced.reads {
		untracedHTTP = append(untracedHTTP, r.latency)
	}
	// The generator's lateness: the open-loop writer's against its
	// schedule, or else the closed-loop reader's gap from a reply to the
	// next send.
	var lags []float64
	if w.sendWrites {
		for _, r := range untraced.writes {
			lags = append(lags, r.lag)
		}
	} else {
		for _, r := range untraced.reads {
			lags = append(lags, r.gap)
		}
	}
	genLag := NewSample(lags)
	reads := float64(a.reads)
	decode := NewSample(append(append([]float64(nil), a.codecDecodeUs...), tw.decodeUs...))
	encode := NewSample(append(append([]float64(nil), a.codecEncodeUs...), tw.encodeUs...))
	return map[string]metric{
		"branch.bound_ns":             {ratio(float64(a.boundTime), float64(a.bounds)), "ns"},
		"branch.bounds_per_query":     {float64(a.bounds) / reads, "count"},
		"search.filter_ms":            {filterS.Median().Value, "ms"},
		"search.filter_ns_per_tree":   {ratio(float64(a.filterTime), float64(a.bounds)), "ns"},
		"search.refine_ms":            {refineS.Median().Value, "ms"},
		"editdist.within_us":          {ratio(us(a.refine.within), float64(a.refine.calls)), "us"},
		"editdist.dp_cells_per_query": {float64(a.refine.cells) / reads, "count"},
		"editdist.cells_ratio":        {ratio(float64(a.refine.cells), float64(a.refine.fullCells)), "ratio"},
		"editdist.cut_short_frac":     {ratio(float64(a.refine.cutShort), float64(a.refine.calls)), "ratio"},
		"search.index_ms":             {indexS.Median().Value, "ms"},
		"search.candidates_per_query": {float64(a.candidates) / reads, "count"},
		"search.verified_per_query":   {float64(a.verified) / reads, "count"},
		"search.accessed_frac":        {ratio(float64(a.candidates), float64(a.dataset)), "ratio"},
		"search.useful_verify_frac":   {ratio(float64(a.candidates), float64(a.verified)), "ratio"},
		"server.overhead_ms":          {overS.Median().Value, "ms"},
		"server.decode_us":            {decode.Mean(), "us"},
		"server.encode_us":            {encode.Mean(), "us"},
		"server.rejected":             {float64(untraced.rejected + twin.rejected), "count"},
		"search.insert_us":            {NewSample(wl.insertUs).Mean(), "us"},
		"wal.append_us":               {NewSample(wl.appendUs).Mean(), "us"},
		"wal.bytes_per_insert":        {ratio(float64(wl.walBytes), float64(wl.inserts)), "B"},
		"segstore.seals":              {float64(wl.seals), "count"},
		"segstore.compactions":        {float64(wl.compactions), "count"},
		"segstore.compaction_ms":      {NewSample(wl.compactionMs).Mean(), "ms"},
		"segstore.segments_per_query": {float64(a.segments) / reads, "count"},
		"client.gen_lag_p99_ms":       {genLag.Percentile(99).Value, "ms"},
		"trace.overhead_frac":         {ratio(httpS.Median().Value, NewSample(untracedHTTP).Median().Value), "ratio"},
		"trace.reconcile_frac":        {ratio(overS.Median().Value+indexS.Median().Value, httpS.Median().Value), "ratio"},
	}, twin, nil
}

// ratio is a/b, or 0 when b is 0 (no work of that kind was done).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
