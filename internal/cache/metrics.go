package cache

// Metrics export. The cache has kept its own atomic counters since it
// landed; RegisterMetrics exposes them through a metrics.Registry as
// callback collectors, so the scrape path reads the very same atomics
// Stats snapshots — one source of truth, no double accounting. The
// sched_cache_* families on schedd's GET /metrics are the daemon's only
// cache-statistics surface.

import "storagesched/internal/metrics"

// RegisterMetrics registers the cache's counters on reg as the
// sched_cache_* families, read live at scrape time. Registering a nil
// cache or on a nil registry is a no-op. Registration is first-wins
// per family name (the metrics package's contract), so register at
// most one cache per registry.
func (c *Cache) RegisterMetrics(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.GaugeFunc("sched_cache_entries",
		"memory-tier entries resident right now",
		func() int64 { return int64(c.Len()) })
	reg.CounterFunc("sched_cache_hits_total",
		"Get calls served from either tier",
		c.hits.Load)
	reg.CounterFunc("sched_cache_mem_hits_total",
		"Get calls served from the memory tier",
		c.memHits.Load)
	reg.CounterFunc("sched_cache_disk_hits_total",
		"Get calls served from the disk tier",
		c.diskHits.Load)
	reg.CounterFunc("sched_cache_misses_total",
		"Get calls served by neither tier",
		c.misses.Load)
	reg.CounterFunc("sched_cache_puts_total",
		"values stored",
		c.puts.Load)
	reg.CounterFunc("sched_cache_evictions_total",
		"memory-tier LRU removals",
		c.evictions.Load)
	reg.CounterFunc("sched_cache_write_errors_total",
		"failed best-effort disk writes (the entry stays absent)",
		c.writeErrors.Load)
	reg.GaugeFunc("sched_cache_mem_bytes",
		"memory-tier resident bytes right now",
		c.MemBytes)
	reg.CounterFunc("sched_cache_gc_runs_total",
		"lifecycle eviction sweeps run",
		c.gcRuns.Load)
	reg.CounterFunc("sched_cache_gc_evicted_entries_total",
		"persistent-tier entries evicted by gc age/size caps",
		c.gcEvictions.Load)
	reg.CounterFunc("sched_cache_gc_evicted_bytes_total",
		"bytes evicted by gc age/size caps",
		c.gcEvictedBytes.Load)
	reg.CounterFunc("sched_cache_gc_tmp_removed_total",
		"orphaned write intermediates collected by gc",
		c.gcTmpRemoved.Load)
	reg.CounterFunc("sched_cache_gc_verify_removed_total",
		"garbage entries deleted by integrity verification",
		c.gcVerifyRemoved.Load)
}
