package engine

// Worker pools. Every SweepBatch runs its jobs on a Pool. A one-shot
// run gets a private pool, started for the call and closed when the
// batch drains. A long-running service instead passes one resident
// pool via BatchConfig.Pool: its goroutines (and their per-worker
// core.Scratch buffers) live for the process lifetime and execute the
// jobs of every batch admitted to it, so concurrent requests share
// capacity the way concurrent instances of one batch already share it.

import (
	"runtime"
	"sync"

	"storagesched/internal/core"
)

// Pool is the worker pool SweepBatch runs its jobs on, private to one
// call or resident and shared across calls. Its goroutines (and their
// reusable scratch buffers) start at NewPool and run until Close; every
// batch whose BatchConfig.Pool points here submits its jobs to the
// shared job channel, so jobs from concurrent batches interleave
// exactly as jobs from concurrent instances of one batch do — the pool
// never idles at batch boundaries.
//
// Determinism is unaffected: results land at their per-item job index
// whatever worker runs them, so each batch's output is byte-identical
// to a run on a private pool of the same size.
//
// A Pool is safe for concurrent use by any number of batches. Close
// must not be called while a batch is still submitting jobs — quiesce
// admissions first (the serve layer's drain does exactly this).
type Pool struct {
	jobs    chan batchJob
	workers int
	wg      sync.WaitGroup
	once    sync.Once
}

// NewPool starts a pool of the given size; 0 or negative
// means runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{jobs: make(chan batchJob), workers: workers}
	for w := 0; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// One scratch per resident worker, reused across every job
			// of every batch this worker ever executes.
			scr := core.NewScratch()
			for bj := range p.jobs {
				bj.run(scr)
			}
		}()
	}
	return p
}

// Workers returns the pool size. Batches sharing the pool inherit it
// as their effective worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool: queued jobs finish, the workers exit, and
// Close returns once they have. Closing twice is a no-op; submitting a
// batch to a closed pool is a caller error (stop admitting batches
// before closing, as a draining server does).
func (p *Pool) Close() {
	p.once.Do(func() { close(p.jobs) })
	p.wg.Wait()
}
