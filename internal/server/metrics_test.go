package server

import (
	"testing"
	"time"

	"treesim/internal/search"
)

// TestMetricsEndpoint: counters, latency histograms and the
// accessed-fraction aggregate all move when traffic flows, and the
// /metrics document carries the live gauges.
func TestMetricsEndpoint(t *testing.T) {
	s, hs, ts := newTestServer(t, quietConfig(), 40, 40)

	for i := 0; i < 3; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i].String(), K: 2}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
	}
	if code := postJSON(t, hs.URL+"/v1/range", RangeRequest{Tree: ts[0].String(), Tau: 1}, nil); code != 200 {
		t.Fatalf("range status %d", code)
	}
	// One client error, counted but not as a 5xx.
	postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: "a(b", K: 2}, nil)
	// One insert, to move the gauge.
	postJSON(t, hs.URL+"/v1/trees", InsertRequest{Tree: "m0(m1,m2)"}, nil)

	var snap Snapshot
	if code := getJSON(t, hs.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}

	knn := snap.Endpoints["/v1/knn"]
	if knn.Requests != 4 {
		t.Errorf("knn requests %d, want 4 (3 ok + 1 bad)", knn.Requests)
	}
	if knn.Errors != 0 {
		t.Errorf("knn 5xx count %d, want 0", knn.Errors)
	}
	var bucketSum uint64
	for _, c := range knn.Buckets {
		bucketSum += c
	}
	if bucketSum != knn.Requests {
		t.Errorf("knn latency buckets sum to %d, requests %d", bucketSum, knn.Requests)
	}
	if snap.Endpoints["/v1/range"].Requests != 1 {
		t.Errorf("range requests %d, want 1", snap.Endpoints["/v1/range"].Requests)
	}

	// The paper's quality measure: 4 successful queries aggregated.
	if snap.Queries.Count != 4 {
		t.Errorf("query count %d, want 4", snap.Queries.Count)
	}
	if snap.Queries.MeanAccessedFraction <= 0 || snap.Queries.MeanAccessedFraction > 1 {
		t.Errorf("mean accessed fraction %v out of (0,1]", snap.Queries.MeanAccessedFraction)
	}
	if snap.Queries.VerifiedTotal <= 0 || snap.Queries.VerifiedTotal > snap.Queries.DatasetTotal {
		t.Errorf("verified %d out of range (dataset %d)", snap.Queries.VerifiedTotal, snap.Queries.DatasetTotal)
	}
	var accSum uint64
	for _, c := range snap.Queries.AccessedBuckets {
		accSum += c
	}
	if accSum != snap.Queries.Count {
		t.Errorf("accessed-fraction buckets sum to %d, queries %d", accSum, snap.Queries.Count)
	}

	// Gauges.
	if snap.IndexSize != 41 {
		t.Errorf("index_size %d, want 41", snap.IndexSize)
	}
	if snap.IndexFilter != "BiBranch" {
		t.Errorf("index_filter %q", snap.IndexFilter)
	}
	if snap.Inserts != 1 {
		t.Errorf("inserts_total %d, want 1", snap.Inserts)
	}
	if snap.MaxInFlight != s.cfg.MaxInFlight {
		t.Errorf("max_inflight %d, want %d", snap.MaxInFlight, s.cfg.MaxInFlight)
	}
	if snap.UptimeSeconds < 0 {
		t.Errorf("uptime %v negative", snap.UptimeSeconds)
	}
}

// TestMetricsBoundedRefineCountersFire: after a small k-NN workload drawn
// from the dataset, /metrics reports over HTTP that the bounded refine cut
// verifications short by both mechanisms — DP early aborts and O(n)
// pre-check rejections — and touched strictly fewer DP cells than full
// verification of the same pairs would have.
func TestMetricsBoundedRefineCountersFire(t *testing.T) {
	_, hs, ts := newTestServer(t, quietConfig(), 200, 9)
	for i := 0; i < 20; i++ {
		if code := postJSON(t, hs.URL+"/v1/knn", KNNRequest{Tree: ts[i*10].String(), K: 10}, nil); code != 200 {
			t.Fatalf("knn status %d", code)
		}
	}
	var snap Snapshot
	if code := getJSON(t, hs.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	q := snap.Queries
	if q.RefineAbortedTotal <= 0 {
		t.Errorf("refine_aborted_total = %d, want > 0", q.RefineAbortedTotal)
	}
	if q.PrecheckRejectsTotal <= 0 {
		t.Errorf("precheck_rejects_total = %d, want > 0", q.PrecheckRejectsTotal)
	}
	if q.DPCellsTotal >= q.DPCellsFullTotal {
		t.Errorf("dp_cells_total = %d, want < dp_cells_full_total = %d", q.DPCellsTotal, q.DPCellsFullTotal)
	}
}

// TestMetricsObserve: direct unit check of the histogram bucketing edges.
func TestMetricsObserve(t *testing.T) {
	m := NewMetrics()
	m.Observe("/x", 200, 100*time.Microsecond, "r1") // first bucket
	m.Observe("/x", 200, 10*time.Second, "r2")       // overflow bucket
	m.Observe("/x", 429, time.Millisecond, "r3")
	m.Observe("/x", 504, time.Millisecond, "r4")
	m.Observe("/x", 500, time.Millisecond, "")
	snap := m.Snapshot()
	e := snap.Endpoints["/x"]
	if e.Requests != 5 || e.Rejected != 1 || e.Timeouts != 1 || e.Errors != 1 {
		t.Fatalf("counters %+v", e)
	}
	if e.Buckets["le_inf"] != 1 {
		t.Errorf("overflow bucket %d, want 1", e.Buckets["le_inf"])
	}
	if e.Buckets[latencyBucketLabel(0)] != 1 {
		t.Errorf("first bucket %d, want 1", e.Buckets[latencyBucketLabel(0)])
	}
	// Exemplars follow the bucket labels; r4 overwrote r3's 1ms slot, and
	// the "" request id left the 1ms slot's exemplar untouched.
	if ex := e.Exemplars[latencyBucketLabel(0)]; ex == nil || ex.RequestID != "r1" {
		t.Errorf("first-bucket exemplar %+v, want r1", ex)
	}
	if ex := e.Exemplars["le_inf"]; ex == nil || ex.RequestID != "r2" {
		t.Errorf("overflow exemplar %+v, want r2", ex)
	}
	if ex := e.Exemplars[latencyBucketLabel(1)]; ex == nil || ex.RequestID != "r4" {
		t.Errorf("1ms exemplar %+v, want r4 (latest wins)", ex)
	}

	m.ObserveQuery(search.Stats{Dataset: 100, Verified: 5, Results: 3})
	m.ObserveQuery(search.Stats{Dataset: 100, Verified: 100, Results: 100})
	q := m.Snapshot().Queries
	if q.Count != 2 || q.VerifiedTotal != 105 || q.DatasetTotal != 200 {
		t.Fatalf("query aggregate %+v", q)
	}
	if q.AccessedBuckets["le_0.05"] != 1 || q.AccessedBuckets["le_1"] != 1 {
		t.Fatalf("accessed buckets %v", q.AccessedBuckets)
	}
}
