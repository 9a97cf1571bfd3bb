package main

// Spans of the traced run. The tracer keeps every span in memory —
// name, start, end, parent and request — and writes them out once the
// run ends; a layer's self time is its span minus the part of it that
// its children cover. All methods are no-ops on a nil *tracer, so the
// untraced replay pass runs the same code without recording.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval, in nanoseconds since the tracer's
// base time.
type span struct {
	name       string
	start, end int64
	parent     int // index of the parent span, -1 at the top
	req        int // request the span belongs to, -1 when none
}

// tracer records spans.
type tracer struct {
	base time.Time
	cur  atomic.Int64 // innermost open replay span, for callees that cannot be told

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a span whose times the caller measured itself.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.base)), end: int64(end.Sub(t.base)), parent: parent, req: req})
	return len(t.spans) - 1
}

// current is the innermost span opened with enter.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	return int(t.cur.Load())
}

// enter opens a span and makes it current, so callees that record
// spans without being told their parent (the timing blob store) nest
// under it; leave closes it and restores the previous current span.
func (t *tracer) enter(name string, parent, req int) (id, prev int) {
	id = t.begin(name, parent, req)
	if t != nil {
		prev = int(t.cur.Swap(int64(id)))
	}
	return id, prev
}

func (t *tracer) leave(id, prev int) {
	if t == nil {
		return
	}
	t.cur.Store(int64(prev))
	t.end(id)
}

// selfTimes returns every span's duration minus the union of its
// children's intervals within it.
func (t *tracer) selfTimes() []int64 {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start - covered(t.spans, kids[i], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func covered(spans []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count int
	total time.Duration // sum of durations
	self  time.Duration // sum of self times
}

func (s spanStats) meanUs() float64 {
	if s.count == 0 {
		return 0
	}
	return us(s.total) / float64(s.count)
}

// stats aggregates the recorded spans by name.
func (t *tracer) stats() map[string]*spanStats {
	self := t.selfTimes()
	out := make(map[string]*spanStats)
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.count++
		st.total += time.Duration(s.end - s.start)
		st.self += time.Duration(self[i])
	}
	return out
}

// write stores the spans as JSON lines at path, each with its self
// time and with the request id inherited from the parent when the
// span was recorded without one.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type spanJSON struct {
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
		Parent int    `json:"parent"`
		Req    int    `json:"req"`
	}
	for i, s := range t.spans {
		req := s.req
		for p := s.parent; req < 0 && p >= 0; p = t.spans[p].parent {
			req = t.spans[p].req
		}
		if err := enc.Encode(spanJSON{i, s.name, s.start, s.end, self[i], s.parent, req}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
