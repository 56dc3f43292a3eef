package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"treesim/internal/search"
	"treesim/internal/server"
	"treesim/internal/tree"
)

// served is one in-process server on a loopback listener.
type served struct {
	srv  *server.Server
	ix   *search.Index
	url  string
	done chan error // Serve's return value
}

// startServer builds the index and server from the in-memory dataset and
// waits for the first successful /readyz; the returned duration is that
// whole span (the benchmark's set-up time). A workload that serves with
// the WAL gets a fresh log directory under scratch.
func startServer(w workload, base []*tree.Tree, scratch string, c *http.Client) (*served, time.Duration, error) {
	cfg := server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if w.wal {
		walDir, err := os.MkdirTemp(scratch, "wal-")
		if err != nil {
			return nil, 0, err
		}
		cfg.WALPath = filepath.Join(walDir, "treesim.wal")
	}
	start := time.Now()
	ix := w.newIndex(base)
	srv := server.New(ix, cfg)
	if w.wal {
		if _, err := srv.Recover(); err != nil {
			return nil, 0, fmt.Errorf("recover: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &served{srv: srv, ix: ix, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- srv.Serve(ln) }()
	for {
		resp, err := c.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop(c)
			return nil, 0, fmt.Errorf("server not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for Serve to return. Pooled
// client connections to it are dropped so the next server starts clean.
func (s *served) stop(clients ...*http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return err
}

// newClient returns a client that keeps exactly one connection: the
// benchmark's loads use one connection per client.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// heapInUse forces a GC and returns the bytes of live heap objects.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupResult is the set-up of several repetitions, and the server left
// running by the last one.
type setupResult struct {
	s           *served
	setupS      []float64 // seconds, one per repetition
	heapPerTree []float64 // bytes, one per repetition
}

// setUp builds the server reps times (each from scratch, the earlier ones
// shut down) and keeps the last. Before each build the heap is measured
// after a forced GC, and again once the server is ready.
func setUp(w workload, base []*tree.Tree, scratch string, reps int, c *http.Client) (*setupResult, error) {
	r := &setupResult{}
	for i := 0; i < reps; i++ {
		before := heapInUse()
		s, d, err := startServer(w, base, scratch, c)
		if err != nil {
			return nil, err
		}
		after := heapInUse()
		r.setupS = append(r.setupS, d.Seconds())
		r.heapPerTree = append(r.heapPerTree, (float64(after)-float64(before))/float64(len(base)))
		if i < reps-1 {
			if err := s.stop(c); err != nil {
				return nil, fmt.Errorf("shutdown: %w", err)
			}
			continue
		}
		r.s = s
	}
	return r, nil
}

// readRec is one read of a window: when it was sent, its latency (+Inf
// when it failed), and its response body when it is in the exactness
// sample.
type readRec struct {
	idx        int
	sent, done time.Time
	latency    float64 // ms
	gap        float64 // ms from the previous reply to this send (closed-loop generator lag)
	failed     bool
	body       []byte // kept for sampled reads only
}

// writeRec is one insert of the open-loop writer.
type writeRec struct {
	idx        int
	sent, done time.Time
	latency    float64 // ms from when the insert was due to its reply; +Inf when it failed
	lag        float64 // ms from when it was due to when it was sent
	failed     bool
	id         int // id the server assigned (valid when !failed)
}

// window is what one measured window produced.
type window struct {
	reads    []readRec
	writes   []writeRec
	elapsed  time.Duration
	rejected int // HTTP 429s
}

// post sends one JSON request and reads the whole reply.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// readHook runs after each read of a window with the read's record and
// its full reply (traced runs replay the read in-process from here). It
// runs on the reader goroutine between requests.
type readHook func(op readOp, rec *readRec, body []byte)

// writeHook is readHook for the writer; body is the insert request.
type writeHook func(t *tree.Tree, rec *writeRec, body []byte)

// load says what one window sends and what it does between requests.
type load struct {
	firstRead int           // index of the window's first read in the read stream
	maxReads  int           // stop reading after this many (0: no limit)
	d         time.Duration // window length
	onRead    readHook      // nil: untraced
	onWrite   writeHook     // nil: untraced
}

// runWindow drives the workload's load for l.d: a closed-loop reader on
// one connection, plus — when the workload writes — an open-loop writer
// on a second connection sending writeRate inserts per second, each timed
// from when it was due. The writer always starts at write 0.
func runWindow(w workload, in *inputs, s *served, rc, wc *http.Client, l load) *window {
	win := &window{}
	start := time.Now()
	deadline := start.Add(l.d)
	var wg sync.WaitGroup
	var rejectedW int
	if w.sendWrites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			win.writes, rejectedW = writeLoop(in, s, wc, start, deadline, l.onWrite)
		}()
	}
	var rejectedR int
	win.reads, rejectedR = readLoop(w, in, s, rc, l, deadline)
	wg.Wait()
	win.elapsed = time.Since(start)
	win.rejected = rejectedR + rejectedW
	return win
}

// warmUp sends reads [0, n) of the read stream untimed, so the timed
// window starts with warm caches and connections.
func warmUp(in *inputs, s *served, c *http.Client, n int) error {
	for i := 0; i < n; i++ {
		op := in.reads.at(i)
		code, _, err := post(c, s.url+op.path, op.body)
		if err != nil {
			return fmt.Errorf("warm-up read %d: %w", i, err)
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up read %d: HTTP %d", i, code)
		}
	}
	return nil
}

func readLoop(w workload, in *inputs, s *served, c *http.Client, l load, deadline time.Time) ([]readRec, int) {
	var recs []readRec
	rejected := 0
	prevDone := time.Now()
	first := l.firstRead
	for i := first; time.Now().Before(deadline) && (l.maxReads == 0 || i-first < l.maxReads); i++ {
		op := in.reads.at(i)
		sent := time.Now()
		code, body, err := post(c, s.url+op.path, op.body)
		done := time.Now()
		rec := readRec{idx: i, sent: sent, done: done, latency: ms(done.Sub(sent)), gap: ms(sent.Sub(prevDone))}
		if err != nil || code != http.StatusOK {
			rec.failed, rec.latency = true, math.Inf(1)
			if code == http.StatusTooManyRequests {
				rejected++
			}
		} else if k := i - first; k%w.sampleEvery == 0 && k/w.sampleEvery < w.sampleCap {
			rec.body = body
		}
		if l.onRead != nil && !rec.failed {
			l.onRead(op, &rec, body)
		}
		recs = append(recs, rec)
		prevDone = time.Now() // time spent in the hook is not generator lag
	}
	return recs, rejected
}

func writeLoop(in *inputs, s *served, c *http.Client, start, deadline time.Time, onWrite writeHook) ([]writeRec, int) {
	var recs []writeRec
	rejected := 0
	interval := time.Second / writeRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			break
		}
		t := in.writes.at(i)
		body, _ := json.Marshal(server.InsertRequest{Tree: t.String()}) // plain struct: cannot fail
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		code, reply, err := post(c, s.url+"/v1/trees", body)
		done := time.Now()
		rec := writeRec{idx: i, sent: sent, done: done, latency: ms(done.Sub(due)), lag: ms(sent.Sub(due))}
		var ir server.InsertResponse
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(reply, &ir)
		}
		if err != nil || code != http.StatusOK {
			rec.failed, rec.latency = true, math.Inf(1)
			if code == http.StatusTooManyRequests {
				rejected++
			}
		} else {
			rec.id = ir.ID
		}
		if onWrite != nil && !rec.failed {
			onWrite(t, &rec, body)
		}
		recs = append(recs, rec)
	}
	return recs, rejected
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
