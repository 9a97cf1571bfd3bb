package main

import (
	"fmt"
	"time"
)

// endToEnd computes the untraced run's metrics from the timed phase;
// items is the number of error-free front lines it returned.
func (lp *loadPhase) endToEnd(items int, setups []float64) map[string]float64 {
	var rtts, firstLines []float64
	ph := &lp.ph
	winItems := make([]float64, len(ph.marks)-1)
	for _, exs := range ph.exchanges {
		for _, ex := range exs {
			if !ex.ok() {
				continue
			}
			rtts = append(rtts, ms(ex.rtt()))
			firstLines = append(firstLines, ms(ex.firstLine.Sub(ex.sent)))
			// A response's items count toward each window in
			// proportion to the share of its round trip spent there.
			for k := range winItems {
				lo, hi := maxTime(ex.sent, ph.marks[k]), minTime(ex.done, ph.marks[k+1])
				if hi.After(lo) {
					winItems[k] += float64(ex.items) * float64(hi.Sub(lo)) / float64(ex.rtt())
				}
			}
		}
	}
	var rates, cpuPerItem []float64
	for k, n := range winItems {
		rates = append(rates, ratio(n, ph.marks[k+1].Sub(ph.marks[k]).Seconds()))
		cpuPerItem = append(cpuPerItem, ratio(ms(ph.cpu[k+1]-ph.cpu[k]), n))
	}
	return map[string]float64{
		"items_per_s":       median(rates),
		"req_p50_ms":        median(rtts),
		"req_p90_ms":        percentile(rtts, 0.9),
		"first_line_p50_ms": median(firstLines),
		"cpu_ms_per_item":   median(cpuPerItem),
		"peak_rss_mb":       float64(lp.peakRSS) / (1 << 20),
		"setup_s":           median(setups),
	}
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// requests counts the exchanges of the timed phase.
func (lp *loadPhase) requests() int {
	n := 0
	for _, exs := range lp.ph.exchanges {
		n += len(exs)
	}
	return n
}

// checkCounters checks what the daemon's counters say about the
// workload itself: corpus_cold never repeats an item, so it must never
// hit its cache, and warm_repeat must be served mostly from its cache.
func (b *bench) checkCounters(lp *loadPhase) {
	hits := delta(lp.before, lp.after, "sched_cache_hits_total")
	lookups := hits + delta(lp.before, lp.after, "sched_cache_misses_total")
	switch b.w.cache {
	case cacheMemory:
		if hits != 0 {
			b.aux.problem("%g cache hits in a workload whose items never repeat", hits)
		}
	case cacheMemOnDisk:
		if ratio(hits, lookups) < 0.5 {
			b.aux.problem("cache hit fraction %.3f, want at least 0.5 on a warm workload", ratio(hits, lookups))
		}
	}
}

// checkDigest sends the digest slice — the first requests of the check
// stream at checkSeed, whatever the run's seed — checks its lines and
// compares the hash of its bytes with the recorded one.
func (b *bench) checkDigest(c *client, check *generator) error {
	want, err := recordedDigests()
	if err != nil {
		return err
	}
	var bodies [][]byte
	for r := range checkRequests {
		req := check.request(r)
		ex, body := c.fetch(req.body)
		ex.r = r
		b.aux.checkExchange("digest slice", &ex, req, body, nil)
		bodies = append(bodies, body)
	}
	if got := digest(bodies); got != want[b.w.name] {
		b.aux.problem("digest slice hashes to %s, digests.json records %q", got, want[b.w.name])
	}
	return nil
}

// printSummary prints the human-readable report that precedes the
// result line.
func (b *bench) printSummary(lp *loadPhase, res *result, values map[string]float64, defs []metricDef) {
	out := b.stdout
	fmt.Fprintf(out, "workload %s, seed %d: %d requests in %.2f s, %d items attempted, %d failed (failed_frac %g)\n",
		b.w.name, b.seed, lp.requests(), lp.ph.end.Sub(lp.ph.start).Seconds(),
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, d := range defs {
		fmt.Fprintf(out, "  %-36s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}
