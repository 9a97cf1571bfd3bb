package main

// Closed-loop load. Each client holds one keep-alive connection and
// its own X-Client-ID, and sends its next POST /v1/sweep only after
// the previous response's trailers have arrived. While the clock runs
// a client only reads the response, notes when its first byte and
// first line arrive, and spills the bytes to a file; parsing and
// checking wait until the clock has stopped.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"storagesched/internal/serve"
)

// client is one closed-loop client.
type client struct {
	id  string
	url string
	tr  *http.Transport
	hc  *http.Client
}

// newClients returns the benchmark's clients against the stack: as
// many as the daemon runs sweeps at once by default, so admission
// never queues or refuses them.
func newClients(st *stack, w *workload) []*client {
	cs := make([]*client, serve.DefaultMaxConcurrent)
	for i := range cs {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cs[i] = &client{
			id:  "schedbench-" + strconv.Itoa(i),
			url: st.url + "/v1/sweep?" + w.sweep.query(),
			tr:  tr,
			hc:  &http.Client{Transport: tr},
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// exchange is one request/response as the client saw it.
type exchange struct {
	r      int    // request number within its stream
	status int    // HTTP status; 0 when the transport failed
	err    string // transport or read failure

	sent, firstByte, firstLine, done time.Time

	off, n int64 // where the body went in the spill file

	// Trailers.
	items, failed int
	sweepErr      string
}

// ok reports whether the exchange completed with a 200 and a clean
// trailer block.
func (e *exchange) ok() bool {
	return e.err == "" && e.status == http.StatusOK && e.sweepErr == ""
}

// rtt is the round trip from send to trailers.
func (e *exchange) rtt() time.Duration { return e.done.Sub(e.sent) }

// do sends one request and copies the response body to sink, which
// the caller positions; buf is the read buffer.
func (c *client) do(body []byte, sink io.Writer, buf []byte) exchange {
	var ex exchange
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		ex.err = err.Error()
		return ex
	}
	req.Header.Set("Content-Type", "application/jsonl")
	req.Header.Set("X-Client-ID", c.id)
	ex.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		ex.err = err.Error()
		ex.done = time.Now()
		return ex
	}
	defer resp.Body.Close()
	ex.firstByte = time.Now()
	ex.status = resp.StatusCode
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if ex.firstLine.IsZero() && bytes.IndexByte(buf[:n], '\n') >= 0 {
				ex.firstLine = time.Now()
			}
			if _, werr := sink.Write(buf[:n]); werr != nil {
				ex.err = werr.Error()
				break
			}
			ex.n += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			ex.err = rerr.Error()
			break
		}
	}
	ex.done = time.Now()
	ex.items, _ = strconv.Atoi(resp.Trailer.Get(serve.TrailerItems))
	ex.failed, _ = strconv.Atoi(resp.Trailer.Get(serve.TrailerFailed))
	ex.sweepErr = resp.Trailer.Get(serve.TrailerError)
	if ex.firstLine.IsZero() {
		ex.firstLine = ex.done
	}
	return ex
}

// fetch sends one request outside the timed phase and returns the
// exchange with the whole body.
func (c *client) fetch(body []byte) (exchange, []byte) {
	var out bytes.Buffer
	ex := c.do(body, &out, make([]byte, 32<<10))
	return ex, out.Bytes()
}

// spill is one client's append-only store of response bodies.
type spill struct {
	f   *os.File
	w   *bufio.Writer
	off int64
}

func newSpill(dir string, i int) (*spill, error) {
	f, err := os.Create(fmt.Sprintf("%s/responses-%d.jsonl", dir, i))
	if err != nil {
		return nil, err
	}
	return &spill{f: f, w: bufio.NewWriterSize(f, 256<<10)}, nil
}

func (s *spill) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.off += int64(n)
	return n, err
}

// finish flushes the buffered bytes so they can be read back.
func (s *spill) finish() error { return s.w.Flush() }

// read returns the body of one exchange.
func (s *spill) read(ex *exchange) ([]byte, error) {
	b := make([]byte, ex.n)
	_, err := s.f.ReadAt(b, ex.off)
	return b, err
}

func (s *spill) close() { s.f.Close() }

// phase is the outcome of the timed phase.
type phase struct {
	start, end time.Time
	exchanges  [][]*exchange // per client, in send order

	// marks are the window boundaries (start, then one per window)
	// and cpu the process CPU time read at each.
	marks []time.Time
	cpu   []time.Duration
}

// windows is the number of equal windows the timed phase is cut into:
// the rates are medians over windows, so a burst of contention from
// outside the process that spans fewer than half of them moves them
// little.
const windows = 10

// runTimed drives the clients in a closed loop until the deadline:
// a client whose previous response finishes after the deadline stops.
// Request numbers come from one shared counter, so the set of bodies
// sent depends only on how many requests fit, not on which client
// sent which. With a tracer, each exchange becomes a client span
// with its first-byte, first-line and trailer phases as children.
func runTimed(cs []*client, g *generator, spills []*spill, dur time.Duration, tr *tracer) phase {
	var next atomic.Int64
	ph := phase{exchanges: make([][]*exchange, len(cs))}
	ph.start = time.Now()
	deadline := ph.start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= windows; k++ {
			at := ph.start.Add(dur * time.Duration(k) / windows)
			time.Sleep(time.Until(at))
			// getrusage on the calling process cannot fail.
			cpu, _, _ := cpuTime()
			ph.marks = append(ph.marks, time.Now())
			ph.cpu = append(ph.cpu, cpu)
		}
	}()
	ends := make([]time.Time, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for time.Now().Before(deadline) {
				r := int(next.Add(1) - 1)
				req := g.request(r)
				off := spills[i].off
				ex := c.do(req.body, spills[i], buf)
				ex.r, ex.off = r, off
				ph.exchanges[i] = append(ph.exchanges[i], &ex)
				ends[i] = ex.done
				if tr != nil {
					top := tr.add("client.request", ex.sent, ex.done, -1, r)
					tr.add("client.first_byte", ex.sent, ex.firstByte, top, r)
					tr.add("client.first_line", ex.firstByte, ex.firstLine, top, r)
					tr.add("client.trailers", ex.firstLine, ex.done, top, r)
				}
			}
		}()
	}
	wg.Wait()
	ph.end = ph.start
	for _, e := range ends {
		if e.After(ph.end) {
			ph.end = e
		}
	}
	return ph
}

// fetched is one request sent outside the timed phase.
type fetched struct {
	ex   exchange
	body []byte
}

// fetchAll sends the requests outside the timed phase, spread over the
// clients, each client in a closed loop, and returns the exchanges in
// request order.
func fetchAll(cs []*client, reqs []request) []fetched {
	out := make([]fetched, len(reqs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := i; q < len(reqs); q += len(cs) {
				ex, body := c.fetch(reqs[q].body)
				ex.r = q
				out[q] = fetched{ex, body}
			}
		}()
	}
	wg.Wait()
	return out
}
