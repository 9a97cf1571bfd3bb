package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"storagesched/internal/stats"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks; an empty sample, which the
// result line could not encode as NaN, has quantile 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	acc := stats.NewAcc(true)
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Quantile(q)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape is one read of the daemon's /metrics: every sample by its
// series name, labels included.
type scrape map[string]float64

// fetchMetrics reads and parses GET /metrics.
func fetchMetrics(baseURL string) (scrape, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics parses Prometheus text exposition samples.
func parseMetrics(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the named family (all label sets).
func (s scrape) sum(name string) float64 {
	total := 0.0
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is the increase of a family between two scrapes.
func delta(before, after scrape, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// cpuTime returns the process's user plus system CPU time and its
// peak resident set size in bytes.
func cpuTime() (time.Duration, int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, int64(ru.Maxrss) * 1024, nil
}

// gcCPU reads the runtime's cumulative GC CPU time and CPU time spent
// on anything but idling, in seconds.
func gcCPU() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return val(0), val(1) - val(2)
}
