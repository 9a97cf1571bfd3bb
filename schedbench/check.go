package main

// The output check, run after the clock stops. A run reports metrics
// only when every line parses, carries no error and appears in input
// order with the expected source and shape; every front is strictly
// monotone and above its lower bounds; every warm pool item's line
// equals its cold line byte for byte; and the digest slice hashes to
// the value recorded in digests.json.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"storagesched/internal/serve"
)

//go:embed digests.json
var digestsJSON []byte

// recordedDigests returns the digest of each workload's check slice.
func recordedDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// tally counts checked items and collects the first problems found.
type tally struct {
	attempted, good, failed int
	problems                []string
}

func (t *tally) problem(format string, args ...any) {
	if len(t.problems) < 10 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// coldLines maps a warm pool index to its cold line with the
// per-request prefix (source and index) removed.
type coldLines map[int][]byte

// checkExchange checks one response against its request; body is the
// response body. Every item of a failed or truncated response counts
// as failed.
func (t *tally) checkExchange(label string, ex *exchange, req request, body []byte, cold coldLines) {
	k := len(req.items)
	t.attempted += k
	if !ex.ok() {
		t.failed += k
		t.problem("%s request %d: status %d, error %q, sweep error %q", label, ex.r, ex.status, ex.err, ex.sweepErr)
		return
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != k || ex.items != k || ex.failed != 0 {
		t.failed += k
		t.problem("%s request %d: %d lines, trailers say %d items and %d failed, want %d items", label, ex.r, len(lines), ex.items, ex.failed, k)
		return
	}
	for i, line := range lines {
		if err := checkLine(line, i, req.items[i], cold); err != nil {
			t.failed++
			t.problem("%s request %d line %d: %v", label, ex.r, i+1, err)
			continue
		}
		t.good++
	}
}

// checkLine checks one JSONL front line: the i-th of its request.
func checkLine(line []byte, i int, ref itemRef, cold coldLines) error {
	var fl serve.FrontLine
	if err := json.Unmarshal(line, &fl); err != nil {
		return fmt.Errorf("does not parse: %v", err)
	}
	if fl.Error != "" {
		return fmt.Errorf("carries error %q", fl.Error)
	}
	if want := "body:" + strconv.Itoa(i+1); fl.Source != want || fl.Index != i {
		return fmt.Errorf("source %q index %d, want %q index %d", fl.Source, fl.Index, want, i)
	}
	if fl.N != ref.n || fl.M != ref.m || fl.Edges != ref.edges {
		return fmt.Errorf("shape n=%d m=%d edges=%d, want n=%d m=%d edges=%d", fl.N, fl.M, fl.Edges, ref.n, ref.m, ref.edges)
	}
	if len(fl.Front) == 0 || fl.Runs < len(fl.Front) {
		return fmt.Errorf("front of %d points from %d runs", len(fl.Front), fl.Runs)
	}
	for j, p := range fl.Front {
		if p.Cmax < fl.CmaxLB || p.Mmax < fl.MmaxLB {
			return fmt.Errorf("point %d (%d, %d) below the lower bounds (%d, %d)", j, p.Cmax, p.Mmax, fl.CmaxLB, fl.MmaxLB)
		}
		if j > 0 && (p.Cmax <= fl.Front[j-1].Cmax || p.Mmax >= fl.Front[j-1].Mmax) {
			return fmt.Errorf("points %d and %d are not strictly monotone", j-1, j)
		}
	}
	if ref.pool >= 0 && cold != nil {
		want, ok := cold[ref.pool]
		if !ok {
			return fmt.Errorf("pool item %d has no cold line", ref.pool)
		}
		if !bytes.Equal(lineTail(line), want) {
			return fmt.Errorf("pool item %d differs from its cold line", ref.pool)
		}
	}
	return nil
}

// lineTail is a front line without its leading source and index
// fields — the part that must not depend on where the item sat.
func lineTail(line []byte) []byte {
	const key = `"index":`
	at := bytes.Index(line, []byte(key))
	if at < 0 {
		return line
	}
	rest := line[at+len(key):]
	for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
		rest = rest[1:]
	}
	return rest
}

// recordCold stores the lines of a pre-fill response as cold lines.
func (c coldLines) record(req request, body []byte) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	for i, line := range lines {
		if i < len(req.items) {
			c[req.items[i].pool] = bytes.Clone(lineTail(line))
		}
	}
}

// digest hashes the response bodies of the check slice.
func digest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
