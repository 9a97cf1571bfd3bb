package serve

// The schedd HTTP layer. A Server wraps one Session — one resident
// pool, one warm cache — with the JSON/JSONL API documented in
// docs/API.md: POST /v1/sweep streams front lines as they complete,
// GET /metrics exposes the session, engine and cache counters, and the
// health probes plus BeginDrain give the daemon a graceful exit.
// Admission is a bounded queue with a per-client fairness cap; a
// request the queue cannot hold is refused with 429 and a Retry-After
// hint rather than queued without bound.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"storagesched/internal/metrics"
	"storagesched/internal/refine"
)

// Default admission limits (see ServerConfig).
const (
	DefaultMaxConcurrent = 2
	DefaultMaxQueue      = 8
	DefaultMaxPerClient  = 2
	DefaultMaxBodyBytes  = 64 << 20
	DefaultRetryAfter    = 2 * time.Second
)

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// MaxConcurrent bounds the sweeps running at once; 0 means
	// DefaultMaxConcurrent.
	MaxConcurrent int

	// MaxQueue bounds the admitted-but-waiting sweeps beyond
	// MaxConcurrent; 0 means DefaultMaxQueue, negative means no queue
	// (admit only what can run immediately).
	MaxQueue int

	// MaxPerClient caps one client's held slots (running plus queued),
	// so a single aggressive client cannot occupy the whole queue; 0
	// means DefaultMaxPerClient, negative means no per-client cap.
	MaxPerClient int

	// MaxBodyBytes bounds a sweep request body; 0 means
	// DefaultMaxBodyBytes.
	MaxBodyBytes int64

	// RetryAfter is the hint returned with 429 responses; 0 means
	// DefaultRetryAfter.
	RetryAfter time.Duration

	// AccessLog, when non-nil, receives one structured line per
	// finished request: id, method, path, client, status, bytes,
	// duration. The daemon wires a JSON handler here (JSONL on stderr);
	// nil disables access logging.
	AccessLog *slog.Logger
}

// Server is the HTTP front end over a Session. Construct with
// NewServer; it implements http.Handler.
type Server struct {
	session   *Session
	mux       *http.ServeMux
	adm       *admission
	maxBody   int64
	retry     time.Duration
	draining  atomic.Bool
	reg       *metrics.Registry
	met       *serverMetrics
	accessLog *slog.Logger
	bootID    string
	reqSeq    atomic.Uint64
}

// NewServer wraps the session with the HTTP API. The server does not
// own the session: closing it (after draining) is the caller's job,
// because drain order — stop admitting, finish in flight, then close —
// is only visible at the daemon level.
func NewServer(session *Session, cfg ServerConfig) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	} else if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.MaxPerClient == 0 {
		cfg.MaxPerClient = DefaultMaxPerClient
	} else if cfg.MaxPerClient < 0 {
		cfg.MaxPerClient = math.MaxInt
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	s := &Server{
		session: session,
		adm: &admission{
			slots:        make(chan struct{}, cfg.MaxConcurrent),
			maxHeld:      cfg.MaxConcurrent + cfg.MaxQueue,
			maxPerClient: cfg.MaxPerClient,
			perClient:    make(map[string]int),
		},
		maxBody:   cfg.MaxBodyBytes,
		retry:     cfg.RetryAfter,
		accessLog: cfg.AccessLog,
	}
	s.reg = session.Registry()
	if s.reg == nil {
		// /metrics always answers; without a session registry it shows
		// the HTTP-boundary families only.
		s.reg = metrics.NewRegistry()
	}
	s.met = newServerMetrics(s.reg)
	var boot [4]byte
	rand.Read(boot[:])
	s.bootID = hex.EncodeToString(boot[:])
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s
}

// RequestIDHeader carries the server-assigned request ID: a header on
// every response, and additionally a trailer on /v1/sweep (where the
// header copy is withdrawn so the ID rides the stream's tail next to
// X-Sweep-Error).
const RequestIDHeader = "X-Request-ID"

// requestIDKey carries the request ID through the request context.
type requestIDKey struct{}

// requestIDFrom extracts the middleware-assigned request ID.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// nextRequestID mints a process-unique request ID: a random boot
// prefix (so IDs from different daemon runs never collide in
// aggregated logs) plus a monotone sequence number.
func (s *Server) nextRequestID() string {
	return s.bootID + "-" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

// logResponseWriter observes status and body bytes for the access
// log. Unwrap keeps http.ResponseController controls (flush, full
// duplex) working through the wrapper.
type logResponseWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (lw *logResponseWriter) WriteHeader(code int) {
	if lw.status == 0 {
		lw.status = code
	}
	lw.ResponseWriter.WriteHeader(code)
}

func (lw *logResponseWriter) Write(p []byte) (int, error) {
	if lw.status == 0 {
		lw.status = http.StatusOK
	}
	n, err := lw.ResponseWriter.Write(p)
	lw.bytes += int64(n)
	return n, err
}

func (lw *logResponseWriter) Unwrap() http.ResponseWriter { return lw.ResponseWriter }

// ServeHTTP implements http.Handler: it assigns the request ID,
// dispatches, and writes the access-log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := s.nextRequestID()
	w.Header().Set(RequestIDHeader, id)
	r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
	if s.accessLog == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	lw := &logResponseWriter{ResponseWriter: w}
	t0 := time.Now()
	s.mux.ServeHTTP(lw, r)
	status := lw.status
	if status == 0 {
		status = http.StatusOK
	}
	s.accessLog.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("client", clientKey(r)),
		slog.Int("status", status),
		slog.Int64("bytes", lw.bytes),
		slog.Duration("duration", time.Since(t0)),
	)
}

// BeginDrain stops admitting sweeps: /readyz flips to 503 so load
// balancers stop routing here, new sweeps are refused with 503, and
// in-flight sweeps run to completion (waited on by http.Server
// Shutdown, not here).
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.met.drained()
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Trailer names on /v1/sweep responses: the sweep totals are only
// known once the stream ends, so they arrive as HTTP trailers.
const (
	TrailerItems     = "X-Sweep-Items"
	TrailerFailed    = "X-Sweep-Failed"
	TrailerCacheHits = "X-Sweep-Cache-Hits"
	TrailerError     = "X-Sweep-Error"

	// TrailerRequestID is RequestIDHeader delivered as a trailer on
	// the streamed sweep response (see RequestIDHeader).
	TrailerRequestID = RequestIDHeader
)

// admission is the bounded two-stage gate in front of the session: a
// request first takes a hold (a place in the building, bounded by
// maxHeld, at most maxPerClient per client), then waits for one of the
// run slots. Rejection is immediate — there is no unbounded queue.
type admission struct {
	slots        chan struct{} // semaphore: sweeps running
	maxHeld      int           // running + queued bound
	maxPerClient int

	mu        sync.Mutex
	held      int
	perClient map[string]int
}

var (
	errQueueFull  = errors.New("sweep queue is full")
	errClientFull = errors.New("client has too many sweeps in flight")
)

// hold reserves a place for the client, or reports why it cannot.
func (a *admission) hold(client string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.perClient[client] >= a.maxPerClient {
		return errClientFull
	}
	if a.held >= a.maxHeld {
		return errQueueFull
	}
	a.held++
	a.perClient[client]++
	return nil
}

// release returns the client's place.
func (a *admission) release(client string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.held--
	if a.perClient[client]--; a.perClient[client] <= 0 {
		delete(a.perClient, client)
	}
}

// clientKey identifies the requester for the per-client cap: the
// X-Client-ID header when the client sends one, else its remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// reject writes a 429 with the Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, reason error) {
	w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.retry.Seconds()))))
	http.Error(w, reason.Error(), http.StatusTooManyRequests)
}

// sweepSpecFromQuery builds the SweepSpec from /v1/sweep query
// parameters. The names and defaults mirror the schedcli sweepbatch
// flags one for one (dmin, dmax, points, grid, no-sbo, no-rls,
// pending, refine, refine-gap, refine-max-points); docs/API.md is the
// reference.
func sweepSpecFromQuery(q url.Values) (SweepSpec, error) {
	var spec SweepSpec
	dmin, err := floatParam(q, "dmin", 0.25)
	if err != nil {
		return spec, err
	}
	dmax, err := floatParam(q, "dmax", 8)
	if err != nil {
		return spec, err
	}
	points, err := pointsParam(q, "points", 32)
	if err != nil {
		return spec, err
	}
	gridKind := q.Get("grid")
	if gridKind == "" {
		gridKind = "geo"
	}
	if spec.Deltas, err = BuildGrid(gridKind, dmin, dmax, points); err != nil {
		return spec, err
	}
	if spec.SkipSBO, err = boolParam(q, "no-sbo"); err != nil {
		return spec, err
	}
	if spec.SkipRLS, err = boolParam(q, "no-rls"); err != nil {
		return spec, err
	}
	if spec.MaxPending, err = pointsParam(q, "pending", 0); err != nil {
		return spec, err
	}
	if spec.Refine, err = boolParam(q, "refine"); err != nil {
		return spec, err
	}
	if spec.RefineGap, err = floatParam(q, "refine-gap", refine.DefaultGap); err != nil {
		return spec, err
	}
	if spec.RefineMaxPoints, err = pointsParam(q, "refine-max-points", refine.DefaultMaxPoints); err != nil {
		return spec, err
	}
	return spec, nil
}

// MaxQueryPoints caps the points, refine-max-points and pending query
// parameters. Each sizes a per-request allocation or loop (pending
// sizes the batch's in-flight buffers), so a larger value is refused
// with 400 before any work runs; the cap sits far above any useful
// δ-grid or streaming window.
const MaxQueryPoints = 4096

// pointsParam is intParam bounded above by MaxQueryPoints.
func pointsParam(q url.Values, name string, def int) (int, error) {
	n, err := intParam(q, name, def)
	if err == nil && n > MaxQueryPoints {
		err = fmt.Errorf("query parameter %s=%d: above the limit of %d", name, n, MaxQueryPoints)
	}
	return n, err
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter %s=%q: not a number", name, v)
	}
	return f, nil
}

func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query parameter %s=%q: not an integer", name, v)
	}
	return n, nil
}

func boolParam(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("query parameter %s=%q: not a boolean", name, v)
	}
	return b, nil
}

// flushWriter flushes after every Write so each JSONL line reaches the
// client as its item completes — the encoder writes one line per call.
type flushWriter struct {
	w     http.ResponseWriter
	rc    *http.ResponseController
	wrote bool
	bytes int64
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.wrote = true
		fw.bytes += int64(n)
	}
	if err != nil {
		return n, err
	}
	if ferr := fw.rc.Flush(); ferr != nil && !errors.Is(ferr, http.ErrNotSupported) {
		return n, ferr
	}
	return n, nil
}

// handleSweep is POST /v1/sweep: decode the body's instances and task
// DAGs, run them through the session, stream one JSONL front line per
// item. The bytes match `schedcli sweepbatch` on the same input; the
// totals arrive as trailers.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	client := clientKey(r)
	if s.draining.Load() {
		s.met.refused(RefusalDraining, client)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	spec, err := sweepSpecFromQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	if err := s.adm.hold(client); err != nil {
		reason := RefusalQueueFull
		if errors.Is(err, errClientFull) {
			reason = RefusalClientCap
		}
		s.met.refused(reason, client)
		s.reject(w, err)
		return
	}
	defer s.adm.release(client)

	// Wait for a run slot; a client that gives up while queued frees
	// its hold without running.
	wait0 := time.Now()
	select {
	case s.adm.slots <- struct{}{}:
		defer func() { <-s.adm.slots }()
	case <-r.Context().Done():
		return
	}
	s.met.admitted(wait0)
	var streamed int64
	defer func() { s.met.finished(streamed) }()

	id := requestIDFrom(r.Context())
	h := w.Header()
	// The ID rides the stream's tail: withdraw the middleware's header
	// copy so it appears exactly once, as a trailer.
	h.Del(RequestIDHeader)
	h.Set("Content-Type", "application/jsonl; charset=utf-8")
	h.Set("Trailer", TrailerItems+", "+TrailerFailed+", "+TrailerCacheHits+", "+TrailerError+", "+TrailerRequestID)

	// The sweep is a streaming pipeline: front lines go out while later
	// request-body items are still being decoded. Without full duplex
	// the HTTP/1.x server closes the request body on the first response
	// write, failing the remaining items mid-stream.
	rc := http.NewResponseController(w)
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}

	fw := &flushWriter{w: w, rc: rc}
	items := DecodeItems("body", http.MaxBytesReader(w, r.Body, s.maxBody), nil)
	st, serr := s.session.Sweep(r.Context(), items, spec, fw)
	streamed = fw.bytes

	if serr != nil && !fw.wrote {
		// Nothing streamed yet — a real error status is still
		// possible, and the ID returns to its header position.
		h.Set(RequestIDHeader, id)
		http.Error(w, serr.Error(), http.StatusInternalServerError)
		return
	}
	h.Set(TrailerItems, strconv.Itoa(st.Items))
	h.Set(TrailerFailed, strconv.Itoa(st.Failed))
	h.Set(TrailerCacheHits, strconv.Itoa(st.CacheHits))
	h.Set(TrailerRequestID, id)
	switch {
	case serr != nil:
		h.Set(TrailerError, "request "+id+": "+serr.Error())
	case st.Failed > 0:
		// No fatal error, but some items carried per-item errors: the
		// trailer summarizes so a client that discards line bodies
		// still learns the stream was not clean, and which request to
		// grep in the access log.
		h.Set(TrailerError, fmt.Sprintf("request %s: %d of %d items failed", id, st.Failed, st.Items))
	}
}

// handleMetrics is GET /metrics: the Prometheus text exposition of the
// server's registry — session, engine and cache families when the
// session carries a registry, plus the HTTP-boundary families. The
// encoding is byte-deterministic for a given state, so scrapes diff
// cleanly.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.reg.WriteText(w)
}

// handleHealthz is GET /healthz: liveness — the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is GET /readyz: readiness — 200 while admitting, 503
// once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
