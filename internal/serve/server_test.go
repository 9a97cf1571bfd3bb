package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/metrics"
)

// Small deterministic test documents: three instances and one task
// DAG, in the JSON formats the CLI reads from files.
const (
	docInstA = `{"m":2,"tasks":[{"id":0,"p":4,"s":1},{"id":1,"p":3,"s":2},{"id":2,"p":5,"s":3},{"id":3,"p":2,"s":2}]}`
	docInstB = `{"m":3,"tasks":[{"id":0,"p":7,"s":2},{"id":1,"p":1,"s":6},{"id":2,"p":4,"s":1},{"id":3,"p":6,"s":3},{"id":4,"p":2,"s":2}]}`
	docGraph = `{"m":2,"tasks":[{"id":0,"p":4,"s":2},{"id":1,"p":3,"s":5},{"id":2,"p":6,"s":1}],"edges":[[0,1],[0,2]]}`
)

func testBody() string { return docInstA + "\n" + docInstB + "\n" + docGraph + "\n" }

func testSpec(t *testing.T) SweepSpec {
	t.Helper()
	grid, err := BuildGrid("geo", 0.5, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return SweepSpec{Deltas: grid}
}

// newTestServer builds a resident session plus its HTTP server; both
// are torn down with the test.
func newTestServer(t *testing.T, scfg SessionConfig, cfg ServerConfig) (*Session, *Server, *httptest.Server) {
	t.Helper()
	scfg.Resident = true
	if scfg.Workers == 0 {
		scfg.Workers = 2
	}
	session := NewSession(scfg)
	s := NewServer(session, cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		session.Close()
	})
	return session, s, srv
}

// TestServeSweepMatchesDirect: the bytes streamed over HTTP must equal
// a direct session Sweep over the same decoded body — the transport
// adds nothing and reorders nothing.
func TestServeSweepMatchesDirect(t *testing.T) {
	session, _, srv := newTestServer(t, SessionConfig{}, ServerConfig{})
	spec := testSpec(t)

	var want bytes.Buffer
	st, err := session.Sweep(context.Background(), DecodeItems("body", strings.NewReader(testBody()), nil), spec, &want)
	if err != nil {
		t.Fatalf("direct Sweep: %v", err)
	}

	resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("HTTP body differs from direct sweep:\n got: %s\nwant: %s", got, want.Bytes())
	}
	// Trailers carry the totals, readable only after the body is
	// drained.
	if tr := resp.Trailer.Get(TrailerItems); tr != fmt.Sprint(st.Items) {
		t.Errorf("trailer %s = %q, want %d", TrailerItems, tr, st.Items)
	}
	if tr := resp.Trailer.Get(TrailerFailed); tr != "0" {
		t.Errorf("trailer %s = %q, want 0", TrailerFailed, tr)
	}
	if tr := resp.Trailer.Get(TrailerError); tr != "" {
		t.Errorf("trailer %s = %q, want empty", TrailerError, tr)
	}
}

// TestServeSweepWarmCache: a second identical request against a cached
// session must be served from the cache — same bytes, and the
// cache-hits trailer accounts for every item.
func TestServeSweepWarmCache(t *testing.T) {
	fcache, err := cache.New(cache.Config{MemEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srv := newTestServer(t, SessionConfig{Cache: fcache, Metrics: metrics.NewRegistry()}, ServerConfig{})

	post := func() ([]byte, string) {
		resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return body, resp.Trailer.Get(TrailerCacheHits)
	}

	cold, coldHits := post()
	warm, warmHits := post()
	if coldHits != "0" {
		t.Errorf("cold request cache hits = %s, want 0", coldHits)
	}
	if warmHits != "3" {
		t.Errorf("warm request cache hits = %s, want 3", warmHits)
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("warm bytes differ from cold:\n cold: %s\n warm: %s", cold, warm)
	}

	// The cache counters on /metrics reflect the same traffic.
	samples, _ := scrapeMetrics(t, srv.URL)
	if got := sampleInt(t, samples, "sched_cache_hits_total"); got != 3 {
		t.Errorf("sched_cache_hits_total = %d, want 3", got)
	}
	if got := sampleInt(t, samples, "sched_cache_puts_total"); got != 3 {
		t.Errorf("sched_cache_puts_total = %d, want 3", got)
	}
}

// TestServeSweepBadRequest: malformed or out-of-range query parameters
// are 400s before any work runs.
func TestServeSweepBadRequest(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{}, ServerConfig{})
	for _, q := range []string{
		"points=three",
		"dmin=low",
		"grid=spiral",
		"refine=maybe",
		"points=1000000000",
		"refine=1&refine-max-points=1000000000",
	} {
		resp, err := http.Post(srv.URL+"/v1/sweep?"+q, "application/jsonl", strings.NewReader(testBody()))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestServeSweepPendingCap: pending sizes the batch's in-flight
// buffers, so a value above MaxQueryPoints is a 400 and no sweep
// starts; the parser keeps the cap itself and non-positive values as
// the default.
func TestServeSweepPendingCap(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{Metrics: metrics.NewRegistry()}, ServerConfig{})
	for _, q := range []string{"pending=4097", "pending=1099511627776", "refine=1&pending=4097"} {
		resp, err := http.Post(srv.URL+"/v1/sweep?"+q, "application/jsonl", strings.NewReader(testBody()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "pending") {
			t.Errorf("query %q: status %d %q, want 400 naming pending", q, resp.StatusCode, body)
		}
	}
	samples, _ := scrapeMetrics(t, srv.URL)
	if got := sampleInt(t, samples, "sched_sweeps_started_total"); got != 0 {
		t.Errorf("sched_sweeps_started_total = %d after refused requests, want 0", got)
	}
	for q, want := range map[string]int{"pending=4096": 4096, "pending=0": 0, "pending=-3": -3, "": 0} {
		v, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := sweepSpecFromQuery(v)
		if err != nil || spec.MaxPending != want {
			t.Errorf("query %q: MaxPending %d, err %v; want %d", q, spec.MaxPending, err, want)
		}
	}
}

// TestServeSweepRefine: ?refine=1 runs the adaptive pipeline — the
// response differs from the plain sweep only the way the CLI's -refine
// output does, which the schedd golden test pins; here we assert it
// parses and covers every item.
func TestServeSweepRefine(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{}, ServerConfig{})
	resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4&refine=1&refine-gap=0.05&refine-max-points=4",
		"application/jsonl", strings.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3: %s", len(lines), body)
	}
	for i, ln := range lines {
		var fl FrontLine
		if err := json.Unmarshal(ln, &fl); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if fl.Index != i || fl.Error != "" || len(fl.Front) == 0 {
			t.Errorf("line %d: index=%d error=%q front=%d", i, fl.Index, fl.Error, len(fl.Front))
		}
	}
}

// heldSweep starts a sweep whose body stays open, so the request holds
// its admission slot until release is called.
func heldSweep(t *testing.T, url string, client string) (release func(), done chan error) {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest("POST", url+"/v1/sweep?dmin=0.5&dmax=8&points=4", pr)
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Client-ID", client)
	}
	started := make(chan struct{})
	done = make(chan error, 1)
	go func() {
		close(started)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- err
			return
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		done <- err
	}()
	<-started
	// One decodable document, then hold the stream open.
	if _, err := pw.Write([]byte(docInstA + "\n")); err != nil {
		t.Fatal(err)
	}
	return func() { pw.Close() }, done
}

// TestServeBackpressure: with one run slot and no queue, a second
// sweep is refused immediately with 429 and a Retry-After hint; the
// per-client cap rejects a client's second sweep even when the global
// queue has room.
func TestServeBackpressure(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{},
		ServerConfig{MaxConcurrent: 1, MaxQueue: -1, MaxPerClient: -1, RetryAfter: 3 * time.Second})

	release, done := heldSweep(t, srv.URL, "")
	defer func() {
		release()
		if err := <-done; err != nil {
			t.Errorf("held sweep: %v", err)
		}
	}()

	// The slot is taken once the held sweep is admitted; poll briefly —
	// admission happens before the body is read, so this settles fast.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Errorf("Retry-After = %q, want %q", ra, "3")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429 (last status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServePerClientFairness: one client at its per-client cap is
// refused while another client still gets through the same queue.
func TestServePerClientFairness(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{},
		ServerConfig{MaxConcurrent: 2, MaxQueue: 8, MaxPerClient: 1})

	release, done := heldSweep(t, srv.URL, "greedy")
	defer func() {
		release()
		if err := <-done; err != nil {
			t.Errorf("held sweep: %v", err)
		}
	}()

	post := func(client string) int {
		req, err := http.NewRequest("POST", srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", strings.NewReader(testBody()))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := post("greedy"); code == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("greedy client never hit its per-client cap")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := post("modest"); code != http.StatusOK {
		t.Errorf("other client got %d, want 200", code)
	}
}

// TestServeDisconnectCancelsSweep: a client vanishing mid-stream must
// cancel the batch and leak no goroutines — the resident pool stays at
// its steady size.
func TestServeDisconnectCancelsSweep(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{Workers: 2}, ServerConfig{})

	// Warm up (routes, pool, transport) before taking the baseline.
	resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(docInstA+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	// A large batch, cancelled after the first line arrives.
	var big strings.Builder
	for range 200 {
		big.WriteString(docInstB + "\n")
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", strings.NewReader(big.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(resp.Body, buf); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	cancel()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	// The batch's goroutines (producer, emitter, in-flight jobs) must
	// wind down; poll with slack for the runtime to settle.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(25 * time.Millisecond)
	}
}

// TestServeDrain: BeginDrain flips readiness, refuses new sweeps with
// 503 and lets the in-flight sweep run to completion.
func TestServeDrain(t *testing.T) {
	_, s, ts := newTestServer(t, SessionConfig{}, ServerConfig{})

	release, done := heldSweep(t, ts.URL, "")

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d", code)
	}
	s.BeginDrain()
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz draining: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz draining: %d, want 200", code)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new sweep while draining: %d, want 503", resp.StatusCode)
	}

	// The sweep admitted before the drain still finishes cleanly.
	release()
	if err := <-done; err != nil {
		t.Errorf("in-flight sweep during drain: %v", err)
	}
}
