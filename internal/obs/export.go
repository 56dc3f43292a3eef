package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Exporter ships completed root-span trees to an OTLP/JSON collector
// (the standard OTLP/HTTP v1/traces shape: ResourceSpans → ScopeSpans →
// flattened spans with hex ids and unix-nano timestamps), on the
// standard library alone.
//
// Offers go into a bounded queue; a single background worker batches
// them by count or age and POSTs each batch with jittered exponential
// backoff, honoring a Retry-After header on 429/503. A full queue or an
// exhausted retry budget drops trees and counts them — export never
// blocks or fails a request. Close flushes whatever is queued, bounded
// by the caller's context.
//
// Methods are safe on a nil *Exporter (disabled: Offer drops, Stats is
// zero), mirroring the package's Span and Recorder contracts.
type Exporter struct {
	cfg    ExporterConfig
	queue  chan ExportTrace
	stop   chan struct{}
	done   chan struct{}
	closed sync.Once

	offered atomic.Uint64
	sent    atomic.Uint64 // spans delivered
	batches atomic.Uint64
	dropped atomic.Uint64 // root trees dropped (queue full or retries exhausted)
	retries atomic.Uint64

	batchLat *Histogram // seconds per successful batch POST
	rng      *IDSource  // backoff jitter, off the math/rand global
}

// ExportTrace is one completed root-span tree offered for export. Root
// is the ended span itself, not a snapshot: the deep copy happens on
// the exporter's own goroutine at encode time, so offering a trace
// costs the request path only a channel send. Snapshot locks the span,
// so the background copy is safe even against stragglers.
type ExportTrace struct {
	Root  *Span     // ended root span; carries the trace identity
	Start time.Time // absolute start of the root span
	Err   bool      // request failed: the root exports with OTLP status ERROR
}

// ExporterConfig sizes an Exporter. Zero values take defaults.
type ExporterConfig struct {
	Endpoint    string        // collector URL, e.g. http://host:4318/v1/traces (required)
	Service     string        // resource service.name (default "treesimd")
	Interval    time.Duration // max age of a partial batch (default 2s)
	MaxBatch    int           // root trees per POST (default 64)
	Queue       int           // bounded queue of pending trees (default 1024)
	MaxAttempts int           // delivery attempts per batch (default 4)
	BaseBackoff time.Duration // first retry wait (default 100ms)
	MaxBackoff  time.Duration // backoff cap (default 5s)
	Client      *http.Client  // default: 10s-timeout client
	Logger      *slog.Logger  // delivery failures (default: discard)
}

func (c ExporterConfig) withDefaults() ExporterConfig {
	if c.Service == "" {
		c.Service = "treesimd"
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Queue <= 0 {
		c.Queue = 1024
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 5 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// NewExporter starts the background worker. Close it to flush.
func NewExporter(cfg ExporterConfig) *Exporter {
	cfg = cfg.withDefaults()
	e := &Exporter{
		cfg:      cfg,
		queue:    make(chan ExportTrace, cfg.Queue),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		batchLat: NewHistogram(DefDurationBuckets),
		rng:      NewIDSource(uint64(time.Now().UnixNano())),
	}
	go e.run()
	return e
}

// Offer enqueues one completed trace; it never blocks. False means the
// queue was full and the tree was dropped (counted).
func (e *Exporter) Offer(t ExportTrace) bool {
	if e == nil {
		return false
	}
	e.offered.Add(1)
	select {
	case e.queue <- t:
		return true
	default:
		e.dropped.Add(1)
		return false
	}
}

// Close stops the worker after flushing everything queued, bounded by
// ctx: when the deadline fires first, the remaining trees are counted
// dropped and the worker exits.
func (e *Exporter) Close(ctx context.Context) error {
	if e == nil {
		return nil
	}
	e.closed.Do(func() { close(e.stop) })
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("obs: exporter flush: %w", ctx.Err())
	}
}

// run is the worker loop: batch by size or age, flush on shutdown.
func (e *Exporter) run() {
	defer close(e.done)
	var batch []ExportTrace
	timer := time.NewTimer(e.cfg.Interval)
	defer timer.Stop()
	flush := func() {
		if len(batch) > 0 {
			e.send(batch)
			batch = nil
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(e.cfg.Interval)
	}
	for {
		select {
		case t := <-e.queue:
			batch = append(batch, t)
			if len(batch) >= e.cfg.MaxBatch {
				flush()
			}
		case <-timer.C:
			flush()
		case <-e.stop:
			// Drain whatever made it into the queue before the stop, in
			// MaxBatch-sized posts.
			for {
				select {
				case t := <-e.queue:
					batch = append(batch, t)
					if len(batch) >= e.cfg.MaxBatch {
						flush()
					}
				default:
					flush()
					return
				}
			}
		}
	}
}

// send delivers one batch, retrying transient failures with jittered
// exponential backoff and honoring Retry-After. Exhausted retries drop
// the batch.
func (e *Exporter) send(batch []ExportTrace) {
	body, spans, err := e.encode(batch)
	if err != nil { // cannot happen for marshalable snapshots; count and move on
		e.dropped.Add(uint64(len(batch)))
		e.cfg.Logger.Error("otlp encode failed", "err", err)
		return
	}
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		status, retryAfter, err := e.post(body)
		if err == nil && status/100 == 2 {
			e.batches.Add(1)
			e.sent.Add(uint64(spans))
			e.batchLat.ObserveDuration(time.Since(t0))
			return
		}
		// 4xx other than 429 means the payload itself is refused;
		// retrying cannot help.
		permanent := err == nil && status/100 == 4 && status != http.StatusTooManyRequests
		if permanent || attempt >= e.cfg.MaxAttempts-1 {
			e.dropped.Add(uint64(len(batch)))
			e.cfg.Logger.Warn("otlp batch dropped", "status", status, "attempts", attempt+1, "err", err)
			return
		}
		e.retries.Add(1)
		wait := e.backoff(attempt, retryAfter)
		select {
		case <-time.After(wait):
		case <-e.stop:
			// Shutting down: one final immediate attempt happens on the
			// next loop turn; don't sit out a long backoff first.
		}
	}
}

// post does one HTTP delivery attempt.
func (e *Exporter) post(body []byte) (status int, retryAfter string, err error) {
	req, err := http.NewRequest(http.MethodPost, e.cfg.Endpoint, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.cfg.Client.Do(req)
	if err != nil {
		return 0, "", err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// backoff computes the wait before retry attempt (0-based): equal-jitter
// exponential, overridden upward by Retry-After.
func (e *Exporter) backoff(attempt int, retryAfter string) time.Duration {
	d := e.cfg.BaseBackoff << attempt
	if d <= 0 || d > e.cfg.MaxBackoff {
		d = e.cfg.MaxBackoff
	}
	half := d / 2
	wait := half + time.Duration(e.rng.Uint64()%uint64(half+1))
	if s, err := strconv.Atoi(retryAfter); err == nil && s >= 0 {
		if ra := time.Duration(s) * time.Second; ra > wait {
			wait = ra
		}
	}
	return wait
}

// ExporterStats summarizes the exporter for /metrics.
type ExporterStats struct {
	Queued       int               `json:"queued"`  // trees waiting in the queue
	Offered      uint64            `json:"offered"` // trees offered since start
	Batches      uint64            `json:"batches"` // batches delivered
	SentSpans    uint64            `json:"sent_spans"`
	Dropped      uint64            `json:"dropped"` // trees lost (queue full or retries exhausted)
	Retries      uint64            `json:"retries"`
	BatchLatency HistogramSnapshot `json:"-"` // rendered by the caller's histogram convention
}

// Stats reads the current counters. Safe on nil (zero stats).
func (e *Exporter) Stats() ExporterStats {
	if e == nil {
		return ExporterStats{}
	}
	return ExporterStats{
		Queued:       len(e.queue),
		Offered:      e.offered.Load(),
		Batches:      e.batches.Load(),
		SentSpans:    e.sent.Load(),
		Dropped:      e.dropped.Load(),
		Retries:      e.retries.Load(),
		BatchLatency: e.batchLat.Snapshot(),
	}
}

// --- OTLP/JSON wire shape -------------------------------------------------
//
// The subset of opentelemetry-proto's trace service request that a
// collector's OTLP/HTTP JSON receiver accepts: protojson field names,
// int64 timestamps as decimal strings, ids as lowercase hex.

type otlpRequest struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string         `json:"traceId"`
	SpanID       string         `json:"spanId"`
	ParentSpanID string         `json:"parentSpanId,omitempty"`
	TraceState   string         `json:"traceState,omitempty"`
	Name         string         `json:"name"`
	Kind         int            `json:"kind"` // 2 = SERVER (roots), 1 = INTERNAL (children)
	StartNano    string         `json:"startTimeUnixNano"`
	EndNano      string         `json:"endTimeUnixNano"`
	Attributes   []otlpKeyValue `json:"attributes,omitempty"`
	Status       *otlpStatus    `json:"status,omitempty"`
}

type otlpStatus struct {
	Code int `json:"code"` // 2 = ERROR
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is protojson's AnyValue: exactly one arm set.
type otlpValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"` // int64 renders as a string in protojson
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

const (
	otlpKindInternal = 1
	otlpKindServer   = 2
	otlpStatusError  = 2
)

// encode renders one batch as an OTLP/JSON request body: one resource
// for the whole process, one scope, the batch's span trees flattened.
func (e *Exporter) encode(batch []ExportTrace) (body []byte, spans int, err error) {
	var flat []otlpSpan
	for _, t := range batch {
		if t.Root == nil {
			continue
		}
		flat = appendOTLPSpans(flat, t.Root.Snapshot(), t.Start, t.Err, true)
	}
	spans = len(flat)
	req := otlpRequest{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			otlpAttr("service.name", e.cfg.Service),
		}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "treesim/internal/obs"},
			Spans: flat,
		}},
	}}}
	body, err = json.Marshal(req)
	return body, spans, err
}

// appendOTLPSpans flattens one snapshot subtree. Snapshot times are
// microseconds relative to the root, so each span's absolute interval is
// base + StartUS .. + DurUS.
func appendOTLPSpans(dst []otlpSpan, sn SpanSnapshot, base time.Time, errStatus, root bool) []otlpSpan {
	start := base.Add(time.Duration(sn.StartUS) * time.Microsecond)
	end := start.Add(time.Duration(sn.DurUS) * time.Microsecond)
	sp := otlpSpan{
		TraceID:      sn.TraceID,
		SpanID:       sn.SpanID,
		ParentSpanID: sn.ParentSpanID,
		TraceState:   sn.TraceState,
		Name:         sn.Name,
		Kind:         otlpKindInternal,
		StartNano:    strconv.FormatInt(start.UnixNano(), 10),
		EndNano:      strconv.FormatInt(end.UnixNano(), 10),
	}
	if root {
		sp.Kind = otlpKindServer
		if errStatus {
			sp.Status = &otlpStatus{Code: otlpStatusError}
		}
	}
	if len(sn.Attrs) > 0 {
		sp.Attributes = make([]otlpKeyValue, 0, len(sn.Attrs))
		for k, v := range sn.Attrs {
			sp.Attributes = append(sp.Attributes, otlpAttrAny(k, v))
		}
		// Map iteration is random; exports should be byte-stable for a
		// given tree.
		sortOTLPAttrs(sp.Attributes)
	}
	dst = append(dst, sp)
	for _, c := range sn.Children {
		dst = appendOTLPSpans(dst, c, base, false, false)
	}
	return dst
}

func sortOTLPAttrs(attrs []otlpKeyValue) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Key < attrs[j-1].Key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}

func otlpAttr(k, v string) otlpKeyValue {
	return otlpKeyValue{Key: k, Value: otlpValue{StringValue: &v}}
}

// otlpAttrAny maps a span attribute to the matching AnyValue arm.
func otlpAttrAny(k string, v any) otlpKeyValue {
	switch x := v.(type) {
	case int64:
		s := strconv.FormatInt(x, 10)
		return otlpKeyValue{Key: k, Value: otlpValue{IntValue: &s}}
	case int:
		s := strconv.Itoa(x)
		return otlpKeyValue{Key: k, Value: otlpValue{IntValue: &s}}
	case float64:
		return otlpKeyValue{Key: k, Value: otlpValue{DoubleValue: &x}}
	case bool:
		return otlpKeyValue{Key: k, Value: otlpValue{BoolValue: &x}}
	case string:
		return otlpAttr(k, x)
	default:
		return otlpAttr(k, fmt.Sprint(x))
	}
}

// CountOTLPSpans validates an OTLP/JSON request body the way a strict
// collector would — well-formed JSON of the expected shape, every span
// with a 32-hex trace id, 16-hex span id, a name, and parseable
// unix-nano timestamps — and returns the span count. Test sinks use it
// to assert the exporter speaks real OTLP, not a lookalike.
func CountOTLPSpans(body []byte) (int, error) {
	var req otlpRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return 0, fmt.Errorf("obs: otlp decode: %w", err)
	}
	if len(req.ResourceSpans) == 0 {
		return 0, errors.New("obs: otlp body has no resourceSpans")
	}
	n := 0
	for _, rs := range req.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if _, ok := ParseTraceID(sp.TraceID); !ok {
					return 0, fmt.Errorf("obs: otlp span %q: bad traceId %q", sp.Name, sp.TraceID)
				}
				if _, ok := ParseSpanID(sp.SpanID); !ok {
					return 0, fmt.Errorf("obs: otlp span %q: bad spanId %q", sp.Name, sp.SpanID)
				}
				if sp.Name == "" {
					return 0, errors.New("obs: otlp span with empty name")
				}
				for _, ts := range []string{sp.StartNano, sp.EndNano} {
					if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
						return 0, fmt.Errorf("obs: otlp span %q: bad timestamp %q", sp.Name, ts)
					}
				}
				n++
			}
		}
	}
	if n == 0 {
		return 0, errors.New("obs: otlp body has no spans")
	}
	return n, nil
}
