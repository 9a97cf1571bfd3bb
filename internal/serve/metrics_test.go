package serve

// Tests for the observability surface: the /metrics exposition,
// request-ID propagation into the sweep trailers, access logging, and
// the hard contract that instrumentation never perturbs the streamed
// JSONL bytes — even under concurrent scrapes while sweeps run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"storagesched/internal/cache"
	"storagesched/internal/metrics"
)

// scrapeMetrics fetches /metrics and returns both the parsed samples
// (full "name{labels}" key to rendered value) and the raw body.
func scrapeMetrics(t *testing.T, base string) (map[string]string, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	samples := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		samples[line[:i]] = line[i+1:]
	}
	return samples, string(body)
}

// sampleInt parses one sample as an integer; a missing sample is a
// test failure (every family registers at construction, so even a
// zero counter has a line).
func sampleInt(t *testing.T, samples map[string]string, key string) int64 {
	t.Helper()
	v, ok := samples[key]
	if !ok {
		t.Fatalf("sample %q missing from scrape", key)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("sample %q = %q: %v", key, v, err)
	}
	return n
}

func postSweep(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	return body
}

// TestSweepTrailerRequestID: the streamed sweep response carries its
// request ID as a trailer (the header copy is withdrawn), and a
// mid-stream item failure surfaces in X-Sweep-Error prefixed with the
// same ID — both trailers ride one response.
func TestSweepTrailerRequestID(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{Metrics: metrics.NewRegistry()}, ServerConfig{})

	body := docInstA + "\n" + `{"m":0,"tasks":[]}` + "\n" + docInstB + "\n"
	resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h := resp.Header.Get(RequestIDHeader); h != "" {
		t.Errorf("header %s = %q on a streamed sweep, want withdrawn (trailer only)", RequestIDHeader, h)
	}
	id := resp.Trailer.Get(TrailerRequestID)
	if id == "" {
		t.Fatalf("trailer %s empty, want a request ID", TrailerRequestID)
	}
	if failed := resp.Trailer.Get(TrailerFailed); failed != "1" {
		t.Errorf("trailer %s = %q, want 1", TrailerFailed, failed)
	}
	serr := resp.Trailer.Get(TrailerError)
	wantPrefix := "request " + id + ": "
	if !strings.HasPrefix(serr, wantPrefix) {
		t.Errorf("trailer %s = %q, want prefix %q", TrailerError, serr, wantPrefix)
	}
	if !strings.Contains(serr, "1 of 3 items failed") {
		t.Errorf("trailer %s = %q, want item-failure summary", TrailerError, serr)
	}

	// Non-streaming endpoints answer with the ID as a plain header.
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.Header.Get(RequestIDHeader) == "" {
		t.Errorf("/healthz response missing %s header", RequestIDHeader)
	}
}

// TestMetricsScrapeDeterministic: with no traffic between scrapes, two
// /metrics responses must be byte-identical — the encoder is
// deterministic for a given registry state.
func TestMetricsScrapeDeterministic(t *testing.T) {
	_, _, srv := newTestServer(t, SessionConfig{Metrics: metrics.NewRegistry()}, ServerConfig{})
	postSweep(t, srv.URL)
	_, first := scrapeMetrics(t, srv.URL)
	_, second := scrapeMetrics(t, srv.URL)
	if first != second {
		t.Errorf("back-to-back scrapes differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	for _, family := range []string{
		"sched_sweeps_started_total", "sched_sweeps_completed_total", "sched_sweeps_failed_total",
		"sched_sweep_items_total", "sched_sweep_item_failures_total", "sched_sweep_seconds_count",
		"sched_refusals_total", "sched_drain_transitions_total", "sched_sweep_bytes_streamed_total",
		"sched_admission_wait_seconds_count", "sched_sweeps_inflight",
		"sched_engine_jobs_total", "sched_engine_queue_depth", "sched_engine_jobs_inflight",
		"sched_engine_prepared_memo_hits_total", "sched_engine_job_seconds_count",
	} {
		if !strings.Contains(first, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
}

// TestRefusalAndDrainMetrics: admission refusals count by reason (with
// the per-client family naming the capped client), and BeginDrain
// counts exactly one transition however often it is called.
func TestRefusalAndDrainMetrics(t *testing.T) {
	_, s, srv := newTestServer(t, SessionConfig{Metrics: metrics.NewRegistry()},
		ServerConfig{MaxConcurrent: 1, MaxQueue: -1, MaxPerClient: 1})

	release, done := heldSweep(t, srv.URL, "greedy")

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

	// Once the held sweep is admitted, greedy's next request trips the
	// per-client cap and any other client trips the full queue.
	deadline := time.Now().Add(5 * time.Second)
	for post("greedy") != http.StatusTooManyRequests {
		if time.Now().After(deadline) {
			t.Fatal("greedy client never hit its per-client cap")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := post("modest"); code != http.StatusTooManyRequests {
		t.Fatalf("modest client got %d, want 429 (queue full)", code)
	}

	release()
	if err := <-done; err != nil {
		t.Errorf("held sweep: %v", err)
	}

	samples, _ := scrapeMetrics(t, srv.URL)
	if n := sampleInt(t, samples, `sched_refusals_total{reason="client_cap"}`); n < 1 {
		t.Errorf("client_cap refusals = %d, want >= 1", n)
	}
	if n := sampleInt(t, samples, `sched_refusals_total{reason="queue_full"}`); n < 1 {
		t.Errorf("queue_full refusals = %d, want >= 1", n)
	}
	if n := sampleInt(t, samples, `sched_client_refusals_total{client="greedy"}`); n < 1 {
		t.Errorf("greedy client refusals = %d, want >= 1", n)
	}

	s.BeginDrain()
	s.BeginDrain() // idempotent: still one transition
	if code := post("greedy"); code != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining got %d, want 503", code)
	}
	samples, _ = scrapeMetrics(t, srv.URL)
	if n := sampleInt(t, samples, "sched_drain_transitions_total"); n != 1 {
		t.Errorf("drain transitions = %d, want 1", n)
	}
	if n := sampleInt(t, samples, `sched_refusals_total{reason="draining"}`); n != 1 {
		t.Errorf("draining refusals = %d, want 1", n)
	}
}

// syncBuffer is a goroutine-safe log sink for the access-log test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLogLine: with an AccessLog configured, each finished
// request produces one JSON line whose ID matches the response's
// request ID, and the streamed JSONL bytes are unchanged.
func TestAccessLogLine(t *testing.T) {
	var logbuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logbuf, nil))
	session, _, srv := newTestServer(t, SessionConfig{Metrics: metrics.NewRegistry()}, ServerConfig{AccessLog: logger})

	var want bytes.Buffer
	if _, err := session.Sweep(t.Context(), DecodeItems("body", strings.NewReader(testBody()), nil), testSpec(t), &want); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("logged sweep bytes differ from direct sweep:\n got: %s\nwant: %s", got, want.Bytes())
	}
	id := resp.Trailer.Get(TrailerRequestID)

	// The access line lands once the handler returns; trailers arriving
	// means it already has, but poll with slack to stay unflaky.
	deadline := time.Now().Add(5 * time.Second)
	var line struct {
		Msg    string `json:"msg"`
		ID     string `json:"id"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
		Bytes  int64  `json:"bytes"`
	}
	for {
		if raw := strings.TrimSpace(logbuf.String()); raw != "" {
			last := raw[strings.LastIndexByte(raw, '\n')+1:]
			if err := json.Unmarshal([]byte(last), &line); err != nil {
				t.Fatalf("access line %q: %v", last, err)
			}
			if line.ID == id {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no access line for request %q; log: %s", id, logbuf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line.Msg != "request" || line.Method != "POST" || line.Path != "/v1/sweep" {
		t.Errorf("access line = %+v, want msg=request method=POST path=/v1/sweep", line)
	}
	if line.Status != http.StatusOK {
		t.Errorf("access line status = %d, want 200", line.Status)
	}
	if line.Bytes != int64(len(got)) {
		t.Errorf("access line bytes = %d, want %d", line.Bytes, len(got))
	}
}

// TestMetricsConcurrentSweepsAndScrapes: scraping /metrics while
// several clients sweep a warm daemon must observe monotone counters,
// every client must receive byte-identical JSONL, the final counts
// must account for every sweep exactly, and no goroutines may linger
// once the traffic stops. Run with -race, this is also the data-race
// proof for the whole instrumentation path.
func TestMetricsConcurrentSweepsAndScrapes(t *testing.T) {
	fcache, err := cache.New(cache.Config{MemEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, _, srv := newTestServer(t, SessionConfig{Cache: fcache, Workers: 2, Metrics: metrics.NewRegistry()},
		ServerConfig{MaxConcurrent: 4, MaxQueue: 64, MaxPerClient: -1})

	golden := postSweep(t, srv.URL) // warm the cache and pin the bytes
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				resp, err := http.Post(srv.URL+"/v1/sweep?dmin=0.5&dmax=8&points=4", "application/jsonl", strings.NewReader(testBody()))
				if err != nil {
					errCh <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
					return
				}
				if !bytes.Equal(body, golden) {
					errCh <- fmt.Errorf("client %d: sweep bytes drifted under concurrent scraping", c)
					return
				}
			}
		}()
	}
	sweepsDone := make(chan struct{})
	go func() { wg.Wait(); close(sweepsDone) }()

	// Scrape continuously until the traffic stops, checking that every
	// watched counter only ever moves forward.
	watched := []string{
		"sched_sweeps_started_total",
		"sched_sweeps_completed_total",
		"sched_sweep_items_total",
		"sched_sweep_bytes_streamed_total",
		"sched_engine_jobs_total",
		"sched_cache_hits_total",
	}
	last := make(map[string]int64)
	check := func() {
		samples, _ := scrapeMetrics(t, srv.URL)
		for _, key := range watched {
			if n := sampleInt(t, samples, key); n < last[key] {
				t.Errorf("counter %s went backwards: %d after %d", key, n, last[key])
			} else {
				last[key] = n
			}
		}
	}
	for scraping := true; scraping; {
		select {
		case <-sweepsDone:
			scraping = false
		default:
			check()
			time.Sleep(2 * time.Millisecond)
		}
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final accounting: the warm-up sweep plus every client round.
	check()
	const total = 1 + clients*rounds
	if got := last["sched_sweeps_completed_total"]; got != total {
		t.Errorf("sweeps completed = %d, want %d", got, total)
	}
	if got := last["sched_sweep_items_total"]; got != total*3 {
		t.Errorf("items = %d, want %d", got, total*3)
	}
	samples, _ := scrapeMetrics(t, srv.URL)
	for _, gauge := range []string{"sched_sweeps_inflight", "sched_engine_queue_depth", "sched_engine_jobs_inflight"} {
		if n := sampleInt(t, samples, gauge); n != 0 {
			t.Errorf("idle gauge %s = %d, want 0", gauge, n)
		}
	}

	// No goroutine may outlive the traffic.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(25 * time.Millisecond)
	}
}
